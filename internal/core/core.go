// Package core implements the paper's methodology (Section III) as a
// reusable pipeline: characterize workloads on a fleet of machines
// into a benchmark × (machine,metric) measurement matrix, remove
// metric correlation with PCA under the Kaiser criterion, measure
// program similarity by hierarchical clustering in the reduced space,
// and derive representative subsets, input-set selections,
// rate-vs-speed comparisons, coverage analyses, and sensitivity
// classifications from the result.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Entry is one workload to characterize, with its display label.
type Entry struct {
	Label    string
	Workload machine.Workload
}

// Characterization is the measurement matrix of a workload set on a
// machine fleet — the paper's "43 benchmarks × 140 metrics" object.
type Characterization struct {
	// Labels are the row names in order.
	Labels []string
	// MachineNames are the fleet machines in order.
	MachineNames []string

	samples map[string]map[string]*counters.Sample   // label -> machine -> sample
	raw     map[string]map[string]*machine.RawCounts // label -> machine -> raw counts
}

// Runner schedules one keyed measurement. Implementations may bound
// concurrency, impose queueing policy, and deduplicate concurrent
// submissions by key (*sched.Queue is the canonical one). The fn
// passed to Do runs under a Runner-owned context; the caller's ctx
// only aborts its own wait.
type Runner interface {
	Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error)
}

// Characterize measures every entry on every machine. Runs are
// independent and fan out across a worker pool (opts.Parallelism
// workers; 0 = GOMAXPROCS, 1 = serial); results are stored by
// (label, machine) and are deterministic regardless of scheduling.
// Canceling ctx abandons the remaining measurements and returns the
// context's error.
func Characterize(ctx context.Context, entries []Entry, machines []*machine.Machine, opts machine.RunOptions) (*Characterization, error) {
	return CharacterizeStored(ctx, entries, machines, opts, nil)
}

// CharacterizeScheduled is CharacterizeStored with the per-call
// worker pool replaced by a shared Runner: every (entry, machine)
// measurement is submitted to r under the store key's identity, so
// concurrent characterizations sharing one scheduler — two batches
// whose experiment sets overlap, two labs at the same fidelity —
// deduplicate in-flight simulations and queue with global FIFO
// fairness instead of oversubscribing the host. Results are
// bit-identical to the unscheduled path. A nil Runner falls back to
// CharacterizeStored.
func CharacterizeScheduled(ctx context.Context, entries []Entry, machines []*machine.Machine, opts machine.RunOptions, st *store.Store, r Runner) (*Characterization, error) {
	return CharacterizeWith(ctx, entries, machines, opts, st, r, nil)
}

// CharacterizeWith is the fully general characterization entry point:
// a shared store (nil = measure directly), a shared Runner (nil = a
// per-call worker pool), and a measurement engine (nil = the exact
// trace-driven engine). Every (entry, machine) measurement is keyed by
// the engine's tier, so analytic and exact records coexist in one
// store without ever answering for each other.
func CharacterizeWith(ctx context.Context, entries []Entry, machines []*machine.Machine, opts machine.RunOptions, st *store.Store, r Runner, eng engine.Engine) (*Characterization, error) {
	if r == nil {
		return characterizeStored(ctx, entries, machines, opts, st, eng)
	}
	c, err := newCharacterization(entries, machines)
	if err != nil {
		return nil, err
	}

	col := &collector{c: c}
	var wg sync.WaitGroup
	for _, l := range distinctLeaves(entries, machines) {
		if ctx.Err() != nil {
			break // canceled: stop submitting
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := store.KeyForEngine(l.m, l.w, opts, tierOf(eng))
			v, err := r.Do(ctx, key.ID(), func(jctx context.Context) (any, error) {
				return measureWith(jctx, st, l.m, l.w, opts, eng)
			})
			var rc *machine.RawCounts
			if err == nil {
				rc = v.(*machine.RawCounts)
			}
			col.add(l, rc, err)
		}()
	}
	wg.Wait()
	return col.result(ctx)
}

// leaf is one distinct (machine, workload) measurement of a
// characterization and every label that shares it. Within one call
// (fixed options and engine) a distinct pair is exactly a distinct
// store key.
type leaf struct {
	m      *machine.Machine
	w      machine.Workload
	labels []string
}

// distinctLeaves groups the entries × machines pairs by measurement,
// in first-occurrence order. Entries may list one workload under
// several labels (experiments.Entries names a multi-input benchmark's
// first input both by its primary label and by its input label);
// measuring and submitting each distinct leaf once keeps a duplicate
// from re-entering the scheduler after the first has finished.
func distinctLeaves(entries []Entry, machines []*machine.Machine) []*leaf {
	type id struct {
		m *machine.Machine
		w machine.Workload
	}
	index := make(map[id]*leaf, len(entries)*len(machines))
	var leaves []*leaf
	for _, e := range entries {
		for _, m := range machines {
			k := id{m, e.Workload}
			if l := index[k]; l != nil {
				l.labels = append(l.labels, e.Label)
				continue
			}
			l := &leaf{m: m, w: e.Workload, labels: []string{e.Label}}
			index[k] = l
			leaves = append(leaves, l)
		}
	}
	return leaves
}

// collector fans each leaf's result out to every label that shares
// it, keeping the first error. It is safe for concurrent use.
type collector struct {
	c        *Characterization
	mu       sync.Mutex
	firstErr error
}

func (col *collector) add(l *leaf, rc *machine.RawCounts, err error) {
	var sample *counters.Sample
	if err == nil {
		sample, err = counters.FromRaw(l.m.Name(), l.m.Config().HasRAPL, rc)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if err != nil {
		if col.firstErr == nil {
			col.firstErr = fmt.Errorf("core: %s on %s: %w", l.labels[0], l.m.Name(), err)
		}
		return
	}
	for _, label := range l.labels {
		col.c.samples[label][l.m.Name()] = sample
		col.c.raw[label][l.m.Name()] = rc
	}
}

// result returns the characterization once every leaf has reported:
// the context's error if it was canceled, else the first leaf error.
func (col *collector) result(ctx context.Context) (*Characterization, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if col.firstErr != nil {
		return nil, col.firstErr
	}
	return col.c, nil
}

// newCharacterization validates the inputs and allocates the empty
// result maps shared by both measurement paths.
func newCharacterization(entries []Entry, machines []*machine.Machine) (*Characterization, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: no workloads to characterize")
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("core: no machines to measure on")
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Label == "" {
			return nil, fmt.Errorf("core: entry with empty label")
		}
		if seen[e.Label] {
			return nil, fmt.Errorf("core: duplicate label %q", e.Label)
		}
		seen[e.Label] = true
	}

	c := &Characterization{
		samples: make(map[string]map[string]*counters.Sample, len(entries)),
		raw:     make(map[string]map[string]*machine.RawCounts, len(entries)),
	}
	for _, e := range entries {
		c.Labels = append(c.Labels, e.Label)
		c.samples[e.Label] = make(map[string]*counters.Sample, len(machines))
		c.raw[e.Label] = make(map[string]*machine.RawCounts, len(machines))
	}
	for _, m := range machines {
		c.MachineNames = append(c.MachineNames, m.Name())
	}
	return c, nil
}

// CharacterizeStored is Characterize backed by a measurement store:
// every (entry, machine) pair already in st is served from it, every
// pair computed lands in it, and concurrent characterizations sharing
// st never simulate the same pair twice. The substrate is
// deterministic, so the result is bit-identical to a store-free run.
// A nil store measures directly.
func CharacterizeStored(ctx context.Context, entries []Entry, machines []*machine.Machine, opts machine.RunOptions, st *store.Store) (*Characterization, error) {
	return characterizeStored(ctx, entries, machines, opts, st, nil)
}

func characterizeStored(ctx context.Context, entries []Entry, machines []*machine.Machine, opts machine.RunOptions, st *store.Store, eng engine.Engine) (*Characterization, error) {
	c, err := newCharacterization(entries, machines)
	if err != nil {
		return nil, err
	}

	leaves := distinctLeaves(entries, machines)
	jobs := make(chan *leaf)
	col := &collector{c: c}
	var wg sync.WaitGroup
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(leaves) {
		workers = len(leaves)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range jobs {
				if ctx.Err() != nil {
					continue // canceled: drain the queue without measuring
				}
				rc, err := measureWith(ctx, st, l.m, l.w, opts, eng)
				col.add(l, rc, err)
			}
		}()
	}
feed:
	for _, l := range leaves {
		select {
		case jobs <- l:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return col.result(ctx)
}

// measure runs one (machine, workload) pair, through the store when
// one is present so concurrent and repeated characterizations share
// measurements.
func measure(ctx context.Context, st *store.Store, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	return measureWith(ctx, st, m, w, opts, nil)
}

// tierOf names an engine's store-key tier; the nil engine is exact.
func tierOf(eng engine.Engine) string {
	if eng == nil {
		return string(engine.TierExact)
	}
	return string(eng.Tier())
}

// measureWith is measure on an explicit engine. A nil engine takes the
// historical Simulate path (bit-identical to engine.Exact, and keyed
// identically in the store).
func measureWith(ctx context.Context, st *store.Store, m *machine.Machine, w machine.Workload, opts machine.RunOptions, eng engine.Engine) (*machine.RawCounts, error) {
	run := func(rctx context.Context) (*machine.RawCounts, error) {
		if eng == nil {
			return Simulate(rctx, m, w, opts)
		}
		return eng.Measure(rctx, m, w, opts)
	}
	if st == nil {
		return run(ctx)
	}
	key := store.KeyForEngine(m, w, opts, tierOf(eng))
	return st.GetOrCompute(ctx, key, func(fctx context.Context) (*machine.RawCounts, error) {
		if err := fctx.Err(); err != nil {
			return nil, err // every waiter left before the run began
		}
		return run(fctx)
	})
}

// Simulate runs one workload on one machine, emitting a "simulate"
// span on the context's trace — the leaf stage every other span tree
// layer (scheduling, storage, analysis) is measured against.
func Simulate(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	_, span := telemetry.StartSpan(ctx, "simulate", "machine", m.Name(), "workload", w.Key)
	rc, err := m.Run(w, opts)
	span.End()
	return rc, err
}

// SimulateMulti is Simulate for multi-copy (SPECrate-style) runs.
func SimulateMulti(ctx context.Context, m *machine.Machine, w machine.Workload, copies int, opts machine.RunOptions) (*machine.MultiCounts, error) {
	_, span := telemetry.StartSpan(ctx, "simulate",
		"machine", m.Name(), "workload", w.Key, "copies", strconv.Itoa(copies))
	mc, err := m.RunMulti(w, copies, opts)
	span.End()
	return mc, err
}

// Sample returns the metric sample for one workload on one machine.
func (c *Characterization) Sample(label, machineName string) (*counters.Sample, error) {
	per, ok := c.samples[label]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", label)
	}
	s, ok := per[machineName]
	if !ok {
		return nil, fmt.Errorf("core: workload %q not measured on %q", label, machineName)
	}
	return s, nil
}

// Raw returns the raw counts for one workload on one machine.
func (c *Characterization) Raw(label, machineName string) (*machine.RawCounts, error) {
	per, ok := c.raw[label]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", label)
	}
	rc, ok := per[machineName]
	if !ok {
		return nil, fmt.Errorf("core: workload %q not measured on %q", label, machineName)
	}
	return rc, nil
}

// Select returns a view of the characterization restricted to the
// given row labels, in the given order.
func (c *Characterization) Select(labels []string) (*Characterization, error) {
	out := &Characterization{
		MachineNames: c.MachineNames,
		samples:      make(map[string]map[string]*counters.Sample, len(labels)),
		raw:          make(map[string]map[string]*machine.RawCounts, len(labels)),
	}
	for _, l := range labels {
		if _, ok := c.samples[l]; !ok {
			return nil, fmt.Errorf("core: unknown workload %q", l)
		}
		out.Labels = append(out.Labels, l)
		out.samples[l] = c.samples[l]
		out.raw[l] = c.raw[l]
	}
	return out, nil
}

// Merge combines two characterizations measured on the same fleet.
// Duplicate labels are rejected.
func (c *Characterization) Merge(other *Characterization) (*Characterization, error) {
	if len(c.MachineNames) != len(other.MachineNames) {
		return nil, fmt.Errorf("core: merging characterizations from different fleets")
	}
	for i, m := range c.MachineNames {
		if other.MachineNames[i] != m {
			return nil, fmt.Errorf("core: merging characterizations from different fleets")
		}
	}
	out := &Characterization{
		MachineNames: c.MachineNames,
		samples:      make(map[string]map[string]*counters.Sample),
		raw:          make(map[string]map[string]*machine.RawCounts),
	}
	add := func(src *Characterization) error {
		for _, l := range src.Labels {
			if _, dup := out.samples[l]; dup {
				return fmt.Errorf("core: duplicate label %q in merge", l)
			}
			out.Labels = append(out.Labels, l)
			out.samples[l] = src.samples[l]
			out.raw[l] = src.raw[l]
		}
		return nil
	}
	if err := add(c); err != nil {
		return nil, err
	}
	if err := add(other); err != nil {
		return nil, err
	}
	return out, nil
}

// Matrix assembles the measurement matrix over the given metrics and
// machines (nil means all). Power metrics are included only for
// machines that have them. The returned column names identify each
// (machine, metric) variable.
func (c *Characterization) Matrix(metrics []counters.Metric, machines []string) (*stats.Matrix, []string, error) {
	if machines == nil {
		machines = c.MachineNames
	}
	// Determine the columns: for each machine, the requested metrics it
	// actually has.
	type col struct {
		machine string
		metric  counters.Metric
	}
	var cols []col
	if len(c.Labels) == 0 {
		return nil, nil, fmt.Errorf("core: empty characterization")
	}
	probe := c.samples[c.Labels[0]]
	for _, m := range machines {
		s, ok := probe[m]
		if !ok {
			return nil, nil, fmt.Errorf("core: machine %q not in characterization", m)
		}
		want := metrics
		if want == nil {
			want = s.Metrics()
		}
		for _, metric := range want {
			if _, err := s.Value(metric); err == nil {
				cols = append(cols, col{machine: m, metric: metric})
			}
		}
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("core: no matching metric columns")
	}

	matrix := stats.NewMatrix(len(c.Labels), len(cols))
	names := make([]string, len(cols))
	for j, cl := range cols {
		names[j] = counters.ColumnID(cl.machine, cl.metric)
	}
	for i, label := range c.Labels {
		for j, cl := range cols {
			s := c.samples[label][cl.machine]
			v, err := s.Value(cl.metric)
			if err != nil {
				return nil, nil, fmt.Errorf("core: %s on %s: %w", label, cl.machine, err)
			}
			matrix.Set(i, j, v)
		}
	}
	return matrix, names, nil
}

// MetricAcross returns one metric's value for one workload on each of
// the given machines (nil = all), in machine order.
func (c *Characterization) MetricAcross(label string, metric counters.Metric, machines []string) ([]float64, error) {
	if machines == nil {
		machines = c.MachineNames
	}
	out := make([]float64, 0, len(machines))
	for _, m := range machines {
		s, err := c.Sample(label, m)
		if err != nil {
			return nil, err
		}
		v, err := s.Value(metric)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// MetricRange reports the min and max of a metric across the given
// workloads on one machine — the Table II "range of important
// performance characteristics" computation.
func (c *Characterization) MetricRange(labels []string, machineName string, metric counters.Metric) (min, max float64, err error) {
	if len(labels) == 0 {
		return 0, 0, fmt.Errorf("core: no labels")
	}
	first := true
	for _, l := range labels {
		s, err := c.Sample(l, machineName)
		if err != nil {
			return 0, 0, err
		}
		v, err := s.Value(metric)
		if err != nil {
			return 0, 0, err
		}
		if first {
			min, max, first = v, v, false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, nil
}

// SortedLabels returns the labels in lexicographic order (the stored
// order is preserved in Labels).
func (c *Characterization) SortedLabels() []string {
	out := append([]string(nil), c.Labels...)
	sort.Strings(out)
	return out
}
