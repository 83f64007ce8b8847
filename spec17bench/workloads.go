package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Nominal per-op costs on the reference runner (2-core Xeon, see
// BENCHMARK.md). --seconds fixes each client's op count through them,
// so every per-op metric has the same base on every run and the
// measured phase lasts about --seconds there.
const (
	exactOpNominal  = 6.5     // s per cold exact table2 request
	passNominal     = 20.0    // s per analysis-warm pass
	writerOpNominal = 0.125   // s per serve-mix writer request
	readerOpNominal = 0.00065 // s per serve-mix reader hit, writer running
	// maxSeconds caps --seconds so the op counts stay within the
	// fidelity pools (see TestSeedMapsToPureDistinctSequence).
	maxSeconds = 60
)

// opCount returns max(floor, round(seconds/nominal)).
func opCount(seconds int, nominal float64, floor int) int {
	return max(floor, int(math.Round(float64(seconds)/nominal)))
}

// env is one run's shared state.
type env struct {
	workload string
	stdout   io.Writer
	seed     int64
	seconds  int
	t0       time.Time // process start
	rec      *recorder // nil unless --trace 1
	root     int       // root span
	dg       digests
	fleet    map[string]*machine.Machine

	attempted, failed int
	failures          []string
	metrics           []metric // end to end
	layers            []metric // per layer (traced run)
	notes             []string // printed, not reported as metrics
}

// note records a line the report prints under the metrics.
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// metric is one printed result.
type metric struct {
	name  string
	value float64
	unit  string
}

// add records an end-to-end metric; its unit comes from the catalog.
func (e *env) add(name string, value float64) {
	d, ok := lookup(endToEnd, name)
	if !ok {
		panic("metric " + name + " is not in the end-to-end catalog")
	}
	e.metrics = append(e.metrics, metric{name, value, d.unit})
}

// layerValue returns a recorded per-layer metric (NaN if absent).
func (e *env) layerValue(name string) float64 {
	for _, m := range e.layers {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// layer records a per-layer metric of the traced run.
func (e *env) layer(name string, value float64) {
	d, ok := lookup(perLayer, name)
	if !ok {
		panic("metric " + name + " is not in the per-layer catalog")
	}
	e.layers = append(e.layers, metric{name, value, d.unit})
}

// op records one attempted operation; a non-nil err fails it.
func (e *env) op(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.failures) < 20 {
			e.failures = append(e.failures, err.Error())
		}
	}
}

// phase measures one measured phase: process CPU and wall time,
// allocation, GC, and the hypervisor's steal share for the report.
type phase struct {
	start           time.Time
	cpu0            float64
	mem             runtime.MemStats
	gcCPU0, totCPU0 float64
	steal0          [2]float64
	wall, cpu       float64 // wall and process CPU seconds
	allocMB, liveMB float64
	// Process CPU, wall seconds and bytes allocated by excluded work.
	exCPU, exWall     float64
	exAlloc           uint64
	gcFrac, stealFrac float64
	gcCycles          uint32
}

// processCPU reads the benchmark's clock: the process's user + system
// CPU seconds (getrusage) since it started. Set-up and, on the
// single-client workloads, the measured phase and each request are
// timed on it. With one request in flight, the process's CPU time over
// a request is the request's latency without the time the hypervisor
// stole from the VM (up to a quarter of all CPU time, varying within
// minutes, on the shared runner), plus the GC work that ran beside it.
// serve-mix has two requests in flight, so its phase and request
// latencies are wall time: CPU time would not see a client blocked on
// a lock the other holds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks returns the steal and total CPU ticks of all CPUs from
// /proc/stat (zeros where it cannot be read).
func stealTicks() [2]float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out [2]float64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			out[0] = v
		}
		out[1] += v
	}
	return out
}

// clock returns the seconds the workload's phase and requests, and
// the traced run's probes that break them down, are timed in: wall
// time on serve-mix, the process CPU clock elsewhere.
func (e *env) clock() float64 {
	if e.workload == "serve-mix" {
		return time.Since(e.t0).Seconds()
	}
	return processCPU()
}

var gcSamples = []runtimemetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() (gc, total float64) {
	runtimemetrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.gcCPU0, p.totCPU0 = readGC()
	p.steal0 = stealTicks()
	p.start, p.cpu0 = time.Now(), processCPU()
	return p
}

// end closes the phase: elapsed time, bytes allocated, GC cycles and
// GC CPU share over the phase. The workload reads the live heap after
// it (see daemon.liveHeapMB).
func (p *phase) end() {
	p.wall, p.cpu = time.Since(p.start).Seconds()-p.exWall, processCPU()-p.cpu0-p.exCPU
	if st := stealTicks(); st[1] > p.steal0[1] {
		p.stealFrac = (st[0] - p.steal0[0]) / (st[1] - p.steal0[1])
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, tot := readGC()
	p.allocMB = float64(m.TotalAlloc-p.mem.TotalAlloc-p.exAlloc) / (1 << 20)
	p.gcCycles = m.NumGC - p.mem.NumGC
	if tot > p.totCPU0 {
		p.gcFrac = (gc - p.gcCPU0) / (tot - p.totCPU0)
	}
}

// exclude runs fn inside the phase but takes its process CPU, wall
// time and allocation out of the phase's totals.
func (p *phase) exclude(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c, w := processCPU(), time.Now()
	fn()
	p.exCPU += processCPU() - c
	p.exWall += time.Since(w).Seconds()
	runtime.ReadMemStats(&m1)
	p.exAlloc += m1.TotalAlloc - m0.TotalAlloc
}

// liveHeapMB returns HeapAlloc after a forced collection.
func liveHeapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// common adds the metrics every workload reports.
func (e *env) common(setup float64, p *phase, ops int) {
	secs := p.cpu
	if e.workload == "serve-mix" {
		secs = p.wall
	}
	e.add("setup_s", setup)
	e.add("ops_per_s", float64(ops)/secs)
	e.add("alloc_mb_per_op", p.allocMB/float64(ops))
	e.add("live_heap_mb", p.liveMB)
}

// goldenReps is how many times analysis-warm and serve-mix re-measure
// the golden cases. Neither simulates anything else, so the median
// repeat's rate is their sim_minstr_per_s; exact-cold re-measures them
// once and takes its rate from its measured phase.
const goldenReps = 15

// golden re-measures the golden cases, each repeat checked
// bit-identical to the fixture and timed on the process CPU clock.
// Each repeat starts from a freshly collected heap and is timed
// without a forced collection: a full GC costs in proportion to the
// live heap the workload left (77 MB of store records on serve-mix),
// not to the simulation, and a repeat's own allocation then rarely
// triggers a cycle, so the median repeat is simulation alone.
func (e *env) golden() {
	cases, err := loadGolden()
	if err != nil {
		e.op(err)
		return
	}
	reps := goldenReps
	if e.workload == "exact-cold" {
		reps = 1
	}
	var rates []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		sp := e.rec.start("machine.golden_check", e.root)
		t := processCPU()
		instr, err := checkGolden(e.fleet, cases)
		d := processCPU() - t
		e.rec.end(sp)
		e.op(err)
		if err == nil {
			rates = append(rates, instr/d/1e6)
		}
	}
	if e.workload != "exact-cold" {
		e.add("sim_minstr_per_s", median(rates))
	}
}

// hitProbeOps is about how many result-cache hits exact-cold and
// analysis-warm time (hit_p50_ms): each path the same number of times,
// rounded up.
const hitProbeOps = 2000

// hitBody returns the body a result-cache hit must return for a
// verified miss body: the same bytes with "cached" set.
func hitBody(miss []byte) ([]byte, error) {
	from, to := []byte("\n  \"cached\": false,"), []byte("\n  \"cached\": true,")
	if n := bytes.Count(miss, from); n != 1 {
		return nil, fmt.Errorf("miss body has %d top-level \"cached\": false fields, want 1", n)
	}
	return bytes.Replace(miss, from, to, 1), nil
}

// timeHits requests each verified miss body's path the same number of
// times, about n in all, in a seeded order on a quiet server. Every request must be a result-cache hit whose body equals
// its miss body with "cached" set. It returns the wall-clock latencies
// in ms: a hit takes a fraction of a millisecond, and the median of
// many ignores those a hypervisor stall stretched. Hit latency grows
// with body size, so each path's hits form a cluster; with an odd
// number of equally weighted paths the median falls inside the middle
// cluster rather than on the edge between two.
func (e *env) timeHits(c *client, d *daemon, misses map[string][]byte, n int) []float64 {
	paths := make([]string, 0, len(misses))
	want := make(map[string][]byte, len(misses))
	for p, body := range misses {
		hit, err := hitBody(body)
		e.op(err)
		if err != nil {
			return nil
		}
		paths, want[p] = append(paths, p), hit
	}
	sp := e.rec.start("bench.hit_probe", e.root)
	defer e.rec.end(sp)
	h0, m0, _ := d.counters()
	var out []float64
	seq := hitProbeSeq(e.seed, paths, n)
	for _, p := range seq {
		body, dur, err := c.get(p)
		if err == nil && !bytes.Equal(body, want[p]) {
			err = fmt.Errorf("hit for %s is not its verified miss body marked cached", p)
		}
		e.op(err)
		if err == nil {
			out = append(out, dur.Seconds()*1e3)
		}
	}
	if h1, m1, _ := d.counters(); h1-h0 != float64(len(seq)) || m1 != m0 {
		e.op(fmt.Errorf("hit probe: %v result-cache hits and %v misses, want %d and 0", h1-h0, m1-m0, len(seq)))
	}
	return out
}

// outcome is what a workload hands the traced run's layer breakdown.
type outcome struct {
	phase        *phase
	ops          int
	coldMS       []float64 // result-cache-miss latencies
	hitMS        []float64 // serve-mix reader latencies
	passMS       []float64 // analysis-warm pass CPU times
	store        *store.Store
	storeStats   store.Stats // over the measured phase
	hits, misses float64     // server result cache, measured phase
	computations float64
}

// leaves is the number of (entry, machine) leaves one cold Lab build
// measures: 108 entries on 7 machines.
func (e *env) leaves() int { return len(experiments.Entries()) * len(e.fleet) }

// runExactCold: one client, each request a cold exact table2 at a
// fresh fidelity near 50 000 — every request misses the result cache,
// the Lab LRU and the store, and simulates all 756 leaves.
func runExactCold(e *env) (*outcome, error) {
	sp := e.rec.start("bench.setup", e.root)
	reg := metrics.NewRegistry()
	st, err := openStore(reg)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(st, reg, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.url)
	defer c.close()

	fids := exactColdOps(e.seed)
	n := opCount(e.seconds, exactOpNominal, 3)
	path := experimentPath("table2", fids[0], false)
	body, _, err := c.get(path)
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	e.op(e.dg.check(path, body))
	setup := processCPU()
	e.rec.end(sp)

	out := &outcome{store: st}
	h0, m0, c0 := d.counters()
	s0 := st.Stats()
	msp := e.rec.start("bench.measure", e.root)
	p := beginPhase()
	instr := 0
	hitsPerOp := (hitProbeOps + n - 1) / n
	for _, f := range fids[1 : 1+n] {
		path := experimentPath("table2", f, false)
		osp := e.rec.start("server.cold_request", msp)
		t := processCPU()
		body, _, err := c.get(path)
		runtime.GC() // collect this request's garbage in its own window
		dt := processCPU() - t
		e.rec.end(osp)
		if err == nil {
			err = e.dg.check(path, body)
		}
		e.op(err)
		if err == nil {
			out.coldMS = append(out.coldMS, dt*1e3)
			instr += f + f/5 // measured + warmup instructions per leaf
			// The fresh result read back: hit_p50_ms's samples, taken
			// between the cold requests so they see the same host, and
			// left out of the phase's time and allocation.
			p.exclude(func() {
				out.hitMS = append(out.hitMS, e.timeHits(c, d, map[string][]byte{path: body}, hitsPerOp)...)
			})
		}
	}
	p.end()
	p.liveMB = d.liveHeapMB()
	e.rec.end(msp)
	out.phase, out.ops = p, n
	h1, m1, c1 := d.counters()
	out.hits, out.misses, out.computations = h1-h0, m1-m0, c1-c0
	out.storeStats = statsDelta(s0, st.Stats())
	if out.misses != float64(n) || out.hits != float64(len(out.hitMS)) {
		e.op(fmt.Errorf("exact-cold: %v result-cache misses and %v hits, want %d and %d", out.misses, out.hits, n, len(out.hitMS)))
	}

	e.common(setup, p, n)
	e.add("cold_p50_ms", median(out.coldMS))
	e.add("sim_minstr_per_s", float64(instr)*float64(e.leaves())/p.cpu/1e6)
	e.add("hit_p50_ms", median(out.hitMS))
	e.bandCheck(st, fids[:1+n], engine.TierExact)
	return out, nil
}

// runAnalysisWarm: setup fills a store at warmFidelity; each measured
// pass starts a fresh server on it and requests all 29 experiments in
// a seeded order. Every request misses the result cache and hits the
// store: the pass simulates nothing.
func runAnalysisWarm(e *env) (*outcome, error) {
	sp := e.rec.start("bench.setup", e.root)
	reg := metrics.NewRegistry()
	st, err := openStore(reg)
	if err != nil {
		return nil, err
	}
	d0, err := startDaemon(st, reg, true)
	if err != nil {
		return nil, err
	}
	c0 := newClient(d0.url)
	requested := make(map[string]bool)
	for _, id := range fillIDs {
		path := experimentPath(id, warmFidelity, false)
		body, _, err := c0.get(path)
		if err != nil {
			c0.close()
			d0.stop()
			return nil, fmt.Errorf("filling the store: %w", err)
		}
		e.op(e.dg.check(path, body))
		requested[id] = true
	}
	// The discarded warm-up op: the first pass's first experiment not
	// already requested, served from the store like every measured one.
	for _, id := range analysisOrder(e.seed, 0) {
		if requested[id] {
			continue
		}
		path := experimentPath(id, warmFidelity, false)
		body, _, err := c0.get(path)
		if err != nil {
			c0.close()
			d0.stop()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		e.op(e.dg.check(path, body))
		break
	}
	c0.close()
	if err := d0.stop(); err != nil {
		return nil, err
	}
	setup := processCPU()
	e.rec.end(sp)

	out := &outcome{store: st}
	passes := opCount(e.seconds, passNominal, 1)
	s0 := st.Stats()
	msp := e.rec.start("bench.measure", e.root)
	p := beginPhase()
	var last *daemon // kept serving until its hits are timed
	var lastClient *client
	bodies := make(map[string][]byte) // verified miss bodies of the last pass
	for pass := 0; pass < passes; pass++ {
		if last != nil {
			lastClient.close()
			if err := last.stop(); err != nil {
				return nil, err
			}
		}
		start := processCPU()
		psp := e.rec.start("server.pass", msp)
		d, err := startDaemon(st, metrics.NewRegistry(), true)
		if err != nil {
			return nil, err
		}
		c := newClient(d.url)
		last, lastClient = d, c
		ids := analysisOrder(e.seed, pass)
		for _, id := range ids {
			path := experimentPath(id, warmFidelity, false)
			osp := e.rec.start("server.cold_request", psp)
			t := processCPU()
			body, _, err := c.get(path)
			runtime.GC() // collect this request's garbage in its own window
			d := processCPU() - t
			e.rec.end(osp)
			if err == nil {
				err = e.dg.check(path, body)
			}
			e.op(err)
			if err == nil {
				out.coldMS = append(out.coldMS, d*1e3)
				bodies[path] = body
			}
		}
		h, m, comp := d.counters()
		out.hits += h
		out.misses += m
		out.computations += comp
		e.rec.end(psp)
		out.passMS = append(out.passMS, (processCPU()-start)*1e3)
	}
	p.end()
	p.liveMB = last.liveHeapMB()
	e.rec.end(msp)
	out.hitMS = e.timeHits(lastClient, last, bodies, hitProbeOps)
	lastClient.close()
	if err := last.stop(); err != nil {
		return nil, err
	}
	out.phase, out.ops = p, passes*len(experiments.IDs())
	out.storeStats = statsDelta(s0, st.Stats())
	// The workload's premise: the measured phase simulates nothing and
	// every request misses the result cache.
	if out.storeStats.Misses != 0 {
		e.op(fmt.Errorf("analysis-warm: %d store misses in the measured phase, want 0", out.storeStats.Misses))
	}
	if out.hits != 0 || out.misses != float64(out.ops) {
		e.op(fmt.Errorf("analysis-warm: %v result-cache hits and %v misses, want 0 and %d", out.hits, out.misses, out.ops))
	}

	e.common(setup, p, out.ops)
	e.add("cold_p50_ms", median(out.coldMS))
	e.add("hit_p50_ms", median(out.hitMS))
	e.bandCheck(st, []int{warmFidelity}, engine.TierExact)
	return out, nil
}

// runServeMix: two clients on one server. The reader requests results
// computed in setup (result-cache hits); the writer requests analytic
// table2 at fresh fidelities, each building a new analytic Lab and
// writing 756 store records.
func runServeMix(e *env) (*outcome, error) {
	sp := e.rec.start("bench.setup", e.root)
	// setup_s is the process's start-up plus the median of
	// serveMixSetups set-ups, each on a fresh store and server: one
	// set-up takes under a second, and over ten runs a single one spread
	// by 0.36. The last one serves the phase.
	fids := writerOps(e.seed)
	startup := processCPU()
	var (
		ms     *mixServer
		setups []float64
	)
	for i := 0; i < serveMixSetups; i++ {
		if ms != nil {
			if err := ms.close(); err != nil {
				return nil, err
			}
		}
		t := processCPU()
		var err error
		if ms, err = e.setUpServeMix(fids[0]); err != nil {
			return nil, err
		}
		setups = append(setups, processCPU()-t)
	}
	defer ms.close()
	st, d, rc, wc, ref := ms.st, ms.d, ms.rc, ms.wc, ms.ref
	setup := startup + median(setups)
	e.rec.end(sp)

	out := &outcome{store: st}
	nw := opCount(e.seconds, writerOpNominal, 1)
	reads := readerOps(e.seed, opCount(e.seconds, readerOpNominal, 1))
	h0, m0, c0 := d.counters()
	s0 := st.Stats()
	var (
		wg           sync.WaitGroup
		werrs, rerrs []error
		wsecs, rsecs float64 // each client's time from the phase start
	)
	msp := e.rec.start("bench.measure", e.root)
	p := beginPhase()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { wsecs = time.Since(p.start).Seconds() }()
		for _, f := range fids[1 : 1+nw] {
			path := experimentPath("table2", f, true)
			osp := e.rec.start("server.cold_request", msp)
			body, dur, err := wc.get(path)
			e.rec.end(osp)
			if err == nil {
				err = e.dg.check(path, body)
			}
			werrs = append(werrs, err)
			if err == nil {
				out.coldMS = append(out.coldMS, dur.Seconds()*1e3)
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer func() { rsecs = time.Since(p.start).Seconds() }()
		for _, id := range reads {
			osp := e.rec.start("server.hit_request", msp)
			body, dur, err := rc.get(experimentPath(id, readerFidelity, true))
			e.rec.end(osp)
			if err == nil && !bytes.Equal(body, ref[id]) {
				err = fmt.Errorf("reader hit for %s differs from its verified first body", id)
			}
			rerrs = append(rerrs, err)
			if err == nil {
				out.hitMS = append(out.hitMS, dur.Seconds()*1e3)
			}
		}
	}()
	wg.Wait()
	p.end()
	e.rec.end(msp)
	for _, err := range append(werrs, rerrs...) {
		e.op(err)
	}
	out.phase, out.ops = p, len(werrs)+len(rerrs)
	h1, m1, c1 := d.counters()
	out.hits, out.misses, out.computations = h1-h0, m1-m0, c1-c0
	out.storeStats = statsDelta(s0, st.Stats())

	// The Tracer keeps the last traceRing requests' traces, and a
	// writer's trace (a span per leaf) holds megabytes where a hit's
	// holds a few KB, so the heap the phase leaves depends on how the
	// two clients' last requests interleaved. Refill the ring with hits,
	// outside the phase, before the live heap is read.
	for _, id := range reads[:min(traceRing, len(reads))] {
		body, _, err := rc.get(experimentPath(id, readerFidelity, true))
		if err == nil && !bytes.Equal(body, ref[id]) {
			err = fmt.Errorf("reader hit for %s differs from its verified first body", id)
		}
		e.op(err)
	}
	p.liveMB = d.liveHeapMB()

	e.common(setup, p, out.ops)
	e.add("cold_p50_ms", median(out.coldMS))
	e.add("hit_p50_ms", median(out.hitMS))
	e.note("writer done after %.2f s, reader after %.2f s of the phase", wsecs, rsecs)
	// The tails are printed, not gated: hypervisor steal stretches
	// single requests, and over ten runs at 10-25% steal their spread
	// reached twice the largest bound a gated metric may have.
	for _, t := range []struct {
		name    string
		samples []float64
		q       float64
	}{{"writer", out.coldMS, 0.90}, {"reader", out.hitMS, 0.99}} {
		if v, err := tail(t.samples, t.q); err == nil {
			e.note("%s p%g %.3f ms (%d samples)", t.name, t.q*100, v, len(t.samples))
		} else {
			e.note("%s p%g refused: %v", t.name, t.q*100, err)
		}
	}

	// Accuracy, after the timed phase: the writer's analytic records
	// against the exact engine on a seeded sample of the same keys.
	e.bandCheck(st, fids[:1+nw], engine.TierAnalytic)
	return out, nil
}

// serveMixSetups is how many times serve-mix sets up (see runServeMix).
const serveMixSetups = 3

// mixServer is one serve-mix set-up: a server on a fresh store, its
// two clients, and the reader's verified first hit body per id.
type mixServer struct {
	st     *store.Store
	d      *daemon
	rc, wc *client
	ref    map[string][]byte
}

func (m *mixServer) close() error {
	m.rc.close()
	m.wc.close()
	return m.d.stop()
}

// setUpServeMix starts a server on a fresh store, computes the reader's
// ids (a miss, then a first hit whose body every measured hit must
// equal byte for byte) and makes the writer's discarded warm-up
// request at fidelity warmup.
func (e *env) setUpServeMix(warmup int) (*mixServer, error) {
	reg := metrics.NewRegistry()
	st, err := openStore(reg)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(st, reg, true)
	if err != nil {
		return nil, err
	}
	ms := &mixServer{st: st, d: d, rc: newClient(d.url), wc: newClient(d.url), ref: make(map[string][]byte)}
	for _, id := range readerIDs {
		path := experimentPath(id, readerFidelity, true)
		for _, key := range []string{path, path + "#hit"} {
			body, _, err := ms.rc.get(path)
			if err != nil {
				ms.close()
				return nil, fmt.Errorf("computing reader id %s: %w", id, err)
			}
			e.op(e.dg.check(key, body))
			ms.ref[id] = body
		}
	}
	path := experimentPath("table2", warmup, true)
	body, _, err := ms.wc.get(path)
	if err != nil {
		ms.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	e.op(e.dg.check(path, body))
	return ms, nil
}

// bandCheck adds analytic_band_max, after the timed phase: the
// workload's own store records of the given tier at the fidelities it
// requested against the other engine (see bandMax). The committed
// bands were fitted near 50 000 instructions, so a ratio above 1 fails
// the run only where every fidelity lies in the writer pool's range
// around it; analysis-warm's 5 000-instruction records sit outside the
// bands by design, and there the ratio is reported, not checked.
func (e *env) bandCheck(st *store.Store, fidelities []int, tier engine.Tier) {
	wrote := make(map[int]bool, len(fidelities))
	inContract := true
	for _, f := range fidelities {
		wrote[f] = true
		inContract = inContract && f >= writerPoolBase && f <= writerPoolBase+writerPoolStep*(writerPoolSize-1)
	}
	sp := e.rec.start("engine.band_check", e.root)
	worst, err := bandMax(st, e.fleet, wrote, tier, e.seed)
	e.rec.end(sp)
	if err == nil && inContract && worst > 1 {
		err = fmt.Errorf("the analytic engine breaks its tolerance band against %s records (worst ratio %.3f)", tier, worst)
	}
	e.op(err)
	e.add("analytic_band_max", worst)
}

func statsDelta(a, b store.Stats) store.Stats {
	return store.Stats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses}
}
