package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// The traced run times calls into each layer's public functions from
// the benchmark's own code. Every probe is wrapped in a span named
// "<layer>.<what>", so the recorder's self times add up per layer.

const (
	hitProbes  = 2000 // handler and loopback hits per side
	coldPairs  = 15   // HTTP vs direct cold analytic builds
	leafPerMch = 3    // sampled leaves per machine for the leaf probes
	leafReps   = 3    // repeats per (leaf, fidelity)
	leafLowF   = 10_000
	leafHighF  = 50_000 // the exact-cold op's fidelity
	leafTopF   = 100_000
	slabEvents = 60_000 // events per leaf for the fill/access probes
	warmRounds = 5      // fresh servers in the store-warm overhead probe
)

// warmProbeIDs are the cheap store-warm experiments (each well under
// 50 ms to run) whose requests the analysis-warm overhead probe times.
var warmProbeIDs = []string{"table1", "fig1", "fig9", "fig10", "fig12", "noise", "rate-scaling"}

// timed runs fn once inside a span and returns the seconds it took on
// the workload's clock (see env.clock), so probes and the workload's
// own ops are timed alike.
func (e *env) timed(name string, parent int, fn func() error) (float64, error) {
	sp := e.rec.start(name, parent)
	start := e.clock()
	err := fn()
	d := e.clock() - start
	e.rec.end(sp)
	return d, err
}

// runLayers runs every layer probe and records the per-layer metrics,
// then breaks the workload's own op time down into those layers.
func runLayers(e *env, out *outcome) error {
	root := e.rec.start("bench.probes", e.root)
	defer e.rec.end(root)
	leaves := sampleLeaves(e)

	hit, err := probeHits(e, root)
	if err != nil {
		return fmt.Errorf("hit probe: %w", err)
	}
	coldOverhead, err := probeColdOverhead(e, out, root)
	if err != nil {
		return fmt.Errorf("cold-overhead probe: %w", err)
	}
	e.layer("server.result_hits", out.hits)
	e.layer("server.result_misses", out.misses)
	e.layer("server.computations", out.computations)

	build, err := probeLabBuild(e, out, root)
	if err != nil {
		return fmt.Errorf("lab-build probe: %w", err)
	}
	runMS, err := probeAnalyses(e, out, root)
	if err != nil {
		return fmt.Errorf("analysis probe: %w", err)
	}
	if err := probeSched(e, root); err != nil {
		return fmt.Errorf("sched probe: %w", err)
	}
	if err := probeStore(e, out, leaves, root); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	if err := probeLeaf(e, leaves, root); err != nil {
		return fmt.Errorf("leaf probe: %w", err)
	}
	e.layer("runtime.gc_cpu_frac", out.phase.gcFrac)
	e.layer("runtime.gc_cycles_per_op", float64(out.phase.gcCycles)/float64(out.ops))

	e.breakdown(out, hit, coldOverhead, build, runMS)
	return nil
}

// leaf is one (entry, machine) pair of the fleet characterization.
type leaf struct {
	m *machine.Machine
	w machine.Workload
}

// sampleLeaves picks leafPerMch seeded entries on every machine.
func sampleLeaves(e *env) []leaf {
	entries := experiments.Entries()
	_, fleet, _ := fleetByName() // validated when env was built
	r := rng(e.seed, 5)
	var out []leaf
	for _, m := range fleet {
		for _, i := range r.Perm(len(entries))[:leafPerMch] {
			out = append(out, leaf{m, entries[i].Workload})
		}
	}
	return out
}

// hitTimes are the hit-path probe results, in milliseconds.
type hitTimes struct{ handler, loopback float64 }

// probeHits times result-cache hits through Handler().ServeHTTP into
// an in-memory recorder and over loopback, on the daemon (Tracer and
// insight on) and on a bare server, alternating sides per call.
func probeHits(e *env, parent int) (hitTimes, error) {
	sp := e.rec.start("server.hit_probe", parent)
	defer e.rec.end(sp)
	path := experimentPath("table2", readerFidelity, true)
	type side struct {
		d *daemon
		c *client
		h http.Handler
	}
	var sides [2]side
	for i, observed := range []bool{true, false} {
		reg := metrics.NewRegistry()
		st, err := openStore(reg)
		if err != nil {
			return hitTimes{}, err
		}
		d, err := startDaemon(st, reg, observed)
		if err != nil {
			return hitTimes{}, err
		}
		defer d.stop()
		c := newClient(d.url)
		defer c.close()
		if _, _, err := c.get(path); err != nil { // compute once
			return hitTimes{}, err
		}
		sides[i] = side{d, c, d.srv.Handler()}
	}
	serve := func(h http.Handler) (float64, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start).Seconds()
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler hit: status %d", rec.Code)
		}
		return d, nil
	}
	var handler [2][]float64
	for i := 0; i < hitProbes; i++ {
		for s := range sides {
			d, err := serve(sides[s].h)
			if err != nil {
				return hitTimes{}, err
			}
			handler[s] = append(handler[s], d*1e6)
		}
	}
	e.layer("server.hit_handler_us", median(handler[0]))
	e.layer("server.trace_overhead_us", median(handler[0])-median(handler[1]))

	// Bytes allocated per handler hit, requests and recorders made
	// before the window opens.
	const allocN = 500
	recs := make([]*httptest.ResponseRecorder, allocN)
	reqs := make([]*http.Request, allocN)
	for i := range recs {
		recs[i], reqs[i] = httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range recs {
		sides[0].h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	e.layer("server.hit_alloc_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/allocN/1024)

	// Loopback hits, alternating with and without a benchmark span
	// around the call: the difference is the benchmark's own tracing
	// overhead per op.
	scratch := newRecorder("overhead", time.Now())
	var plain, spanned []float64
	for i := 0; i < hitProbes; i++ {
		_, d, err := sides[0].c.get(path)
		if err != nil {
			return hitTimes{}, err
		}
		plain = append(plain, d.Seconds()*1e9)
		start := time.Now()
		s := scratch.start("server.hit_request", -1)
		_, _, err = sides[0].c.get(path)
		scratch.end(s)
		if err != nil {
			return hitTimes{}, err
		}
		spanned = append(spanned, float64(time.Since(start).Nanoseconds()))
	}
	loopMS := median(plain) / 1e6
	handlerMS := median(handler[0]) / 1e3
	e.layer("server.hit_transport_us", (loopMS-handlerMS)*1e3)
	e.layer("bench.trace_overhead_ns", median(spanned)-median(plain))
	return hitTimes{handler: handlerMS, loopback: loopMS}, nil
}

// probeColdOverhead measures what the server adds to a cold request,
// in milliseconds. On analysis-warm it is that workload's own request
// kind (see probeStoreWarmOverhead). Elsewhere it alternates cold
// analytic table2 requests over loopback with the same Lab build and
// Descriptor.Run called directly, each at a fresh writer fidelity, and
// takes the difference of the medians: serve-mix's writer request, and
// on exact-cold an estimate, since a cold exact request takes seconds.
func probeColdOverhead(e *env, out *outcome, parent int) (float64, error) {
	sp := e.rec.start("server.cold_overhead_probe", parent)
	defer e.rec.end(sp)
	if e.workload == "analysis-warm" {
		overhead, err := probeStoreWarmOverhead(e, out.store, sp)
		if err == nil {
			e.layer("server.cold_overhead_ms", overhead)
		}
		return overhead, err
	}
	reg := metrics.NewRegistry()
	st, err := openStore(reg)
	if err != nil {
		return 0, err
	}
	d, err := startDaemon(st, reg, true)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	c := newClient(d.url)
	defer c.close()
	dst, err := openStore(metrics.NewRegistry())
	if err != nil {
		return 0, err
	}
	q := sched.NewPool(1, nil).Queue(0)
	desc, _ := experiments.Lookup("table2")
	// Distinct writer-pool fidelities (digests exist for all of them);
	// the probe's stores are its own, so every request is cold.
	fids := writerOps(e.seed + 1)
	fids = fids[len(fids)-2*coldPairs:]
	var viaHTTP, direct []float64
	for i := 0; i < coldPairs; i++ {
		path := experimentPath("table2", fids[2*i], true)
		var body []byte
		t, err := e.timed("server.cold_request", sp, func() error {
			var err error
			body, _, err = c.get(path)
			return err
		})
		if err == nil {
			err = e.dg.check(path, body)
		}
		if err != nil {
			return 0, err
		}
		viaHTTP = append(viaHTTP, t*1e3)
		t, err = e.timed("experiments.direct_build", sp, func() error {
			lab := experiments.NewLabWithEngine(machine.RunOptions{Instructions: fids[2*i+1]}, dst, q, engine.Analytic{})
			_, err := desc.Run(lab)
			return err
		})
		if err != nil {
			return 0, err
		}
		direct = append(direct, t*1e3)
	}
	overhead := median(viaHTTP) - median(direct)
	e.layer("server.cold_overhead_ms", overhead)
	return overhead, nil
}

// probeStoreWarmOverhead measures analysis-warm's request kind: an
// experiment on a fresh server over the filled store, after the
// server's Lab is built. Each round starts a server on st, builds its
// Lab with a discarded table2 request, then requests each of
// warmProbeIDs over loopback and runs the same experiment directly on
// a Lab over the same store; the median of the paired differences is
// the overhead, in milliseconds.
func probeStoreWarmOverhead(e *env, st *store.Store, sp int) (float64, error) {
	lab := experiments.NewLabWithEngine(machine.RunOptions{Instructions: warmFidelity}, st, sched.NewPool(1, nil).Queue(0), nil)
	if _, err := lab.Characterization(); err != nil {
		return 0, err
	}
	var diffs []float64
	for round := 0; round < warmRounds; round++ {
		d, err := startDaemon(st, metrics.NewRegistry(), true)
		if err != nil {
			return 0, err
		}
		c := newClient(d.url)
		get := func(id string) (float64, error) {
			path := experimentPath(id, warmFidelity, false)
			var body []byte
			t, err := e.timed("server.cold_request", sp, func() error {
				var err error
				body, _, err = c.get(path)
				return err
			})
			if err == nil {
				err = e.dg.check(path, body)
			}
			return t, err
		}
		_, err = get("table2")
		for _, id := range warmProbeIDs {
			if err != nil {
				break
			}
			var viaHTTP, direct float64
			if viaHTTP, err = get(id); err != nil {
				break
			}
			desc, _ := experiments.Lookup(id)
			direct, err = e.timed("experiments.direct_run", sp, func() error {
				_, err := desc.Run(lab)
				return err
			})
			diffs = append(diffs, (viaHTTP-direct)*1e3)
		}
		c.close()
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return 0, err
		}
	}
	return median(diffs), nil
}

// timedEngine wraps an engine and sums the time its Measure calls
// take on the workload's clock — the leaf share of a Lab build, timed
// from the benchmark. The Lab's scheduler has one worker, so the
// calls never overlap.
type timedEngine struct {
	inner engine.Engine
	clock func() float64
	mu    sync.Mutex
	secs  float64
}

func (t *timedEngine) Tier() engine.Tier { return t.inner.Tier() }

func (t *timedEngine) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	start := t.clock()
	rc, err := t.inner.Measure(ctx, m, w, opts)
	d := t.clock() - start
	t.mu.Lock()
	t.secs += d
	t.mu.Unlock()
	return rc, err
}

// buildTimes is the lab-build probe's result, in milliseconds.
type buildTimes struct{ build, leaves float64 }

// probeLabBuild times a fresh Lab.Characterization() the way the
// workload builds Labs: exact at a fresh fidelity near 50 000 on
// exact-cold (once: it takes seconds), analytic at fresh writer
// fidelities on serve-mix, and exact over the filled store on
// analysis-warm. A timing engine under the Lab sums the leaves'
// Measure calls; the rest of the build is the fan-out (scheduler,
// store, keys, goroutines).
func probeLabBuild(e *env, out *outcome, parent int) (buildTimes, error) {
	sp := e.rec.start("experiments.lab_build_probe", parent)
	defer e.rec.end(sp)
	type buildCase struct {
		opts machine.RunOptions
		st   *store.Store
		eng  engine.Engine
	}
	var cases []buildCase
	fresh := func() *store.Store {
		st, _ := openStore(metrics.NewRegistry()) // an in-memory Open cannot fail
		return st
	}
	switch e.workload {
	case "exact-cold":
		fids := exactColdOps(e.seed)
		cases = append(cases, buildCase{machine.RunOptions{Instructions: fids[len(fids)-1]}, fresh(), engine.Exact{}})
	case "serve-mix":
		fids := writerOps(e.seed + 2)
		for _, f := range fids[len(fids)-5:] {
			cases = append(cases, buildCase{machine.RunOptions{Instructions: f}, fresh(), engine.Analytic{}})
		}
	default:
		for i := 0; i < 5; i++ {
			cases = append(cases, buildCase{machine.RunOptions{Instructions: warmFidelity}, out.store, engine.Exact{}})
		}
	}
	var builds, leaves []float64
	for _, c := range cases {
		te := &timedEngine{inner: c.eng, clock: e.clock}
		lab := experiments.NewLabWithEngine(c.opts, c.st, sched.NewPool(1, nil).Queue(0), te)
		t, err := e.timed("experiments.lab_build", sp, func() error {
			_, err := lab.Characterization()
			return err
		})
		if err != nil {
			return buildTimes{}, err
		}
		builds = append(builds, t*1e3)
		leaves = append(leaves, te.secs*1e3)
	}
	bt := buildTimes{build: median(builds), leaves: median(leaves)}
	e.layer("experiments.lab_build_ms", bt.build)
	fan := make([]float64, len(builds))
	for i := range builds {
		fan[i] = builds[i] - leaves[i]
	}
	e.layer("core.fanout_overhead_ms", median(fan))
	return bt, nil
}

// probeAnalyses times Descriptor.Run for every experiment on a warm
// Lab over a store holding every leaf the registry needs (the
// workload's own store on analysis-warm, a freshly filled one
// elsewhere), then the similarity pipeline and its two stages on the
// same characterization. Returns run times by id, in milliseconds.
func probeAnalyses(e *env, out *outcome, parent int) (map[string]float64, error) {
	sp := e.rec.start("experiments.analysis_probe", parent)
	defer e.rec.end(sp)
	opts := machine.RunOptions{Instructions: warmFidelity}
	q := sched.NewPool(1, nil).Queue(0)
	st := out.store
	if e.workload != "analysis-warm" {
		var err error
		if st, err = openStore(metrics.NewRegistry()); err != nil {
			return nil, err
		}
		fill := experiments.NewLabWithEngine(opts, st, q, nil)
		if _, err := e.timed("experiments.fill", sp, func() error {
			for _, id := range fillIDs {
				d, _ := experiments.Lookup(id)
				if _, err := d.Run(fill); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	lab := experiments.NewLabWithEngine(opts, st, q, nil)
	char, err := lab.Characterization()
	if err != nil {
		return nil, err
	}
	s0 := st.Stats()
	runMS := make(map[string]float64)
	for _, d := range experiments.Registry() {
		t, err := e.timed("experiments.run."+d.ID, sp, func() error {
			_, err := d.Run(lab)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.ID, err)
		}
		runMS[d.ID] = t * 1e3
		e.layer("experiments.run_ms."+d.ID, t*1e3)
	}
	if n := st.Stats().Misses - s0.Misses; n != 0 {
		e.op(fmt.Errorf("warm analyses simulated %d leaves, want 0", n))
	}

	sopts := core.DefaultSimilarityOptions()
	var sim, pcaT, clusT []float64
	for i := 0; i < 5; i++ {
		t, err := e.timed("core.similarity", sp, func() error {
			_, err := char.SimilarityCtx(context.Background(), sopts)
			return err
		})
		if err != nil {
			return nil, err
		}
		sim = append(sim, t*1e3)
	}
	matrix, _, err := char.Matrix(sopts.Metrics, sopts.Machines)
	if err != nil {
		return nil, err
	}
	var pca *stats.PCA
	for i := 0; i < 5; i++ {
		t, err := e.timed("stats.fit_pca", sp, func() error {
			var err error
			pca, err = stats.FitPCA(matrix, stats.PCAOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		pcaT = append(pcaT, t*1e3)
	}
	// The same PC count and scores SimilarityCtx clusters.
	k := min(pca.KaiserComponents(), max(len(char.Labels)-1, 1))
	points := pca.ReducedScores(k, !sopts.UnweightedScores)
	for i := 0; i < 5; i++ {
		t, err := e.timed("cluster.cluster", sp, func() error {
			_, err := cluster.Cluster(points, char.Labels, sopts.Linkage)
			return err
		})
		if err != nil {
			return nil, err
		}
		clusT = append(clusT, t*1e3)
	}
	e.layer("core.similarity_ms", median(sim))
	e.layer("stats.fit_pca_ms", median(pcaT))
	e.layer("cluster.cluster_ms", median(clusT))
	return runMS, nil
}

// probeSched times a no-op Queue.Do on a one-worker pool.
func probeSched(e *env, parent int) error {
	sp := e.rec.start("sched.do_probe", parent)
	defer e.rec.end(sp)
	q := sched.NewPool(1, nil).Queue(0)
	noop := func(context.Context) (any, error) { return nil, nil }
	var ts []float64
	for i := 0; i < 5000; i++ {
		start := time.Now()
		if _, err := q.Do(context.Background(), strconv.Itoa(i), noop); err != nil {
			return err
		}
		ts = append(ts, time.Since(start).Seconds()*1e6)
	}
	e.layer("sched.do_us", median(ts))
	return nil
}

// probeStore times KeyForEngine, Put and a Get hit on the sampled
// leaves, and reports the workload store's hits and misses over the
// measured phase.
func probeStore(e *env, out *outcome, leaves []leaf, parent int) error {
	sp := e.rec.start("store.probe", parent)
	defer e.rec.end(sp)
	st, err := openStore(metrics.NewRegistry())
	if err != nil {
		return err
	}
	rc, err := engine.Analytic{}.Measure(context.Background(), leaves[0].m, leaves[0].w,
		machine.RunOptions{Instructions: leafHighF})
	if err != nil {
		return err
	}
	var keyT, putT []float64
	var keys []store.Key
	for r := 0; r < 10; r++ {
		for _, l := range leaves {
			opts := machine.RunOptions{Instructions: leafHighF + r}
			start := time.Now()
			k := store.KeyForEngine(l.m, l.w, opts, string(engine.TierAnalytic))
			keyT = append(keyT, time.Since(start).Seconds()*1e6)
			start = time.Now()
			st.Put(k, rc)
			putT = append(putT, time.Since(start).Seconds()*1e6)
			keys = append(keys, k)
		}
	}
	const batch = 1000
	var hitT []float64
	for b := 0; b < 100; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, ok := st.Get(keys[(b*batch+i)%len(keys)]); !ok {
				return fmt.Errorf("store probe: stored key missing")
			}
		}
		hitT = append(hitT, float64(time.Since(start).Nanoseconds())/batch)
	}
	e.layer("store.key_us", median(keyT))
	e.layer("store.put_us", median(putT))
	e.layer("store.hit_ns", median(hitT))
	e.layer("store.hits", float64(out.storeStats.Hits))
	e.layer("store.misses", float64(out.storeStats.Misses))
	return nil
}

// probeLeaf breaks one exact leaf down from outside at equal event
// counts: Exact.Measure at two fidelities on the same sampled leaves
// gives the fixed cost (intercept) and per-instruction cost (slope);
// the component constructors, the trace generator's FillBatch and a
// replay of a generated slab through the cache hierarchy split them.
func probeLeaf(e *env, leaves []leaf, parent int) error {
	sp := e.rec.start("machine.leaf_probe", parent)
	defer e.rec.end(sp)
	ctx := context.Background()
	// The fit spans 10k to 100k instructions: one leaf's time varies by
	// a few ms from call to call, which swamps the slope over a narrower
	// range.
	fids := []int{leafLowF, leafHighF, leafTopF}
	var xs, ys, high, analytic []float64
	for _, l := range leaves {
		per := make([][]float64, len(fids))
		for r := 0; r < leafReps; r++ {
			for i, f := range fids {
				t, err := e.timed("engine.exact_leaf", sp, func() error {
					_, err := engine.Exact{}.Measure(ctx, l.m, l.w, machine.RunOptions{Instructions: f, WarmupInstructions: f / 5})
					return err
				})
				if err != nil {
					return err
				}
				per[i] = append(per[i], t*1e3)
			}
		}
		for i, f := range fids {
			xs = append(xs, float64(f+f/5))
			ys = append(ys, median(per[i]))
		}
		high = append(high, median(per[1]))
		var at []float64
		for r := 0; r < 5; r++ {
			t, err := e.timed("engine.analytic_leaf", sp, func() error {
				_, err := engine.Analytic{}.Measure(ctx, l.m, l.w, machine.RunOptions{Instructions: leafHighF})
				return err
			})
			if err != nil {
				return err
			}
			at = append(at, t*1e6)
		}
		analytic = append(analytic, median(at))
	}
	fixedMS, slopeMS, err := fitLine(xs, ys)
	if err != nil {
		return err
	}
	nsPerInstr := slopeMS * 1e6
	e.layer("engine.exact_leaf_ms", mean(high))
	e.layer("engine.analytic_leaf_us", mean(analytic))
	e.layer("machine.leaf_fixed_ms", fixedMS)
	e.layer("machine.ns_per_instr", nsPerInstr)

	// Component constructors, per leaf (so machines weigh as sampled).
	var cacheMS, cacheMB, tlbUS, brUS, genMS, fillNS, accessNS []float64
	for _, l := range leaves {
		cfg := l.m.Config()
		var c, cmb, t, b, g []float64
		for r := 0; r < 3; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d, err := e.timed("cache.build", sp, func() error {
				_, err := cache.NewHierarchy(cfg.Caches)
				return err
			})
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			c = append(c, d*1e3)
			cmb = append(cmb, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			d, err = e.timed("tlb.build", sp, func() error {
				_, err := tlb.NewHierarchy(cfg.TLBs)
				return err
			})
			if err != nil {
				return err
			}
			t = append(t, d*1e6)
			d, err = e.timed("branch.build", sp, func() error {
				_, err := branch.New(cfg.Predictor)
				return err
			})
			if err != nil {
				return err
			}
			b = append(b, d*1e6)
			d, err = e.timed("trace.new_generator", sp, func() error {
				_, err := trace.NewGenerator(l.m.AdjustedSpec(l.w), l.w.Key+"@"+l.m.Name())
				return err
			})
			if err != nil {
				return err
			}
			g = append(g, d*1e3)
		}
		cacheMS, cacheMB = append(cacheMS, median(c)), append(cacheMB, median(cmb))
		tlbUS, brUS, genMS = append(tlbUS, median(t)), append(brUS, median(b)), append(genMS, median(g))

		fill, access, err := slabProbe(e, l, sp)
		if err != nil {
			return err
		}
		fillNS, accessNS = append(fillNS, fill), append(accessNS, access)
	}
	e.layer("cache.build_ms", mean(cacheMS))
	e.layer("cache.build_mb", mean(cacheMB))
	e.layer("tlb.build_us", mean(tlbUS))
	e.layer("branch.build_us", mean(brUS))
	e.layer("trace.new_generator_ms", mean(genMS))
	e.layer("machine.prime_ms", fixedMS-mean(cacheMS)-mean(tlbUS)/1e3-mean(brUS)/1e3-mean(genMS))
	e.layer("trace.fill_ns_per_event", mean(fillNS))
	e.layer("cache.access_ns", mean(accessNS))
	e.layer("machine.model_ns_per_instr", nsPerInstr-mean(fillNS))
	return nil
}

// slabProbe times FillBatch over slabEvents events of the leaf's
// generator, then replays those events through a fresh cache
// hierarchy the way the simulation kernel does (an instruction fetch
// per new line, a data access per load or store). Returns ns per
// event for each.
func slabProbe(e *env, l leaf, parent int) (fillNS, accessNS float64, err error) {
	gen, err := trace.NewGenerator(l.m.AdjustedSpec(l.w), l.w.Key+"@"+l.m.Name())
	if err != nil {
		return 0, 0, err
	}
	events := make([]trace.Event, slabEvents)
	const slab = 512 // the kernel's slab size
	fill, _ := e.timed("trace.fill", parent, func() error {
		for i := 0; i < len(events); i += slab {
			gen.FillBatch(events[i:min(i+slab, len(events))])
		}
		return nil
	})
	h, err := cache.NewHierarchy(l.m.Config().Caches)
	if err != nil {
		return 0, 0, err
	}
	lineShift := uint(0)
	for b := l.m.Config().Caches.L1I.LineBytes; b > 1; b >>= 1 {
		lineShift++
	}
	access, _ := e.timed("cache.access", parent, func() error {
		last := ^uint64(0)
		for i := range events {
			ev := &events[i]
			if line := ev.PC >> lineShift; line != last {
				last = line
				h.FetchInstr(ev.PC)
			}
			if ev.Kind == trace.Load || ev.Kind == trace.Store {
				h.AccessData(ev.Addr)
			}
		}
		return nil
	})
	return fill * 1e9 / slabEvents, access * 1e9 / slabEvents, nil
}

// breakdown splits the workload's op time into the probed layers and
// prints the table and the unexplained remainder.
func (e *env) breakdown(out *outcome, hit hitTimes, coldOverhead float64, build buildTimes, runMS map[string]float64) {
	w := e.stdout
	var op, explained float64
	var parts [][2]any
	switch e.workload {
	case "analysis-warm":
		op = median(out.passMS)
		var runs float64
		for _, v := range runMS {
			runs += v
		}
		n := float64(len(runMS))
		parts = [][2]any{
			{"experiments.lab_build_ms (store-warm, once per pass)", build.build},
			{"sum of experiments.run_ms.*", runs},
			{fmt.Sprintf("%.0f x server.cold_overhead_ms", n), n * coldOverhead},
		}
	default:
		op = median(out.coldMS)
		overhead := "server.cold_overhead_ms"
		if e.workload == "exact-cold" {
			overhead += " (estimate, from analytic table2)"
		}
		parts = [][2]any{
			{overhead, coldOverhead},
			{"experiments.lab_build_ms", build.build},
			{"experiments.run_ms.table2", runMS["table2"]},
		}
	}
	fmt.Fprintf(w, "\nbreakdown of one %s op (median %.3f ms):\n", e.workload, op)
	for _, p := range parts {
		v := p[1].(float64)
		explained += v
		fmt.Fprintf(w, "  %-58s %12.3f ms %6.1f%%\n", p[0], v, 100*v/op)
	}
	rest := "unexplained remainder"
	if e.workload == "serve-mix" {
		rest += " (includes contention with the reader)"
	}
	fmt.Fprintf(w, "  %-58s %12.3f ms %6.1f%%\n", rest, op-explained, 100*(op-explained)/op)
	if build.leaves > 0 {
		fmt.Fprintf(w, "  lab build = leaves' Measure %.3f ms + fan-out %.3f ms\n", build.leaves, build.build-build.leaves)
	}
	if e.workload == "exact-cold" {
		fixed, slope := e.layerValue("machine.leaf_fixed_ms"), e.layerValue("machine.ns_per_instr")
		instr := float64(leafHighF + leafHighF/5)
		n := float64(e.leaves())
		fmt.Fprintf(w, "  leaf model at %d+%d instructions: fixed %.3f ms + %.1f ns/instr = %.3f ms/leaf; x %d leaves = %.0f ms (measured leaves' Measure %.0f ms)\n",
			leafHighF, leafHighF/5, fixed, slope, fixed+slope*instr/1e6, e.leaves(), n*(fixed+slope*instr/1e6), build.leaves)
		fmt.Fprintf(w, "  fixed cost = cache.build %.3f + tlb.build %.3f + branch.build %.3f + trace.new_generator %.3f + machine.prime %.3f ms\n",
			e.layerValue("cache.build_ms"), e.layerValue("tlb.build_us")/1e3, e.layerValue("branch.build_us")/1e3,
			e.layerValue("trace.new_generator_ms"), e.layerValue("machine.prime_ms"))
		fmt.Fprintf(w, "  per instruction = trace.fill %.1f + model %.1f ns (cache.access alone, unprimed: %.1f ns)\n",
			e.layerValue("trace.fill_ns_per_event"), e.layerValue("machine.model_ns_per_instr"), e.layerValue("cache.access_ns"))
	}
	if e.workload == "serve-mix" {
		h := median(out.hitMS)
		fmt.Fprintf(w, "breakdown of one reader hit (median %.4f ms): handler %.4f ms + transport %.4f ms, remainder %.4f ms (contention with the writer)\n",
			h, hit.handler, hit.loopback-hit.handler, h-hit.loopback)
	}
	e.layer("bench.unexplained_pct", 100*(op-explained)/op)
}
