package machine

// The batched simulation kernel: the one counting loop every
// simulation path runs. Run (single copy) and RunMulti (SPECrate-style
// multi-copy) used to carry near-identical ~100-line per-event loops
// that had already started to drift; both now drive simStream, which
// consumes trace events in caller-owned slabs (trace.Generator's
// FillBatch arena API) and counts through exactly one implementation.
//
// The measure flag is hoisted out of the inner loop: warmupEvent runs
// the simulators without counting, measureEvent counts into RawCounts
// and the CPI-stack miss-routing tables. Results are bit-identical to
// the historical per-event loops — the golden fixture test
// (TestGoldenCounts) and the batched-vs-sequential tests pin this.

import (
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpistack"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// simSlabSize is the event-slab length: large enough to amortize the
// per-batch bookkeeping, small enough that a slab of Events (40 bytes
// each) stays cache-resident.
const simSlabSize = 512

// simStream is one instruction stream's simulation state: a trace
// generator feeding private (or partially shared) cache, TLB, and
// predictor models, plus the counters one RawCounts is derived from.
// Run uses a single stream; RunMulti uses one per copy.
type simStream struct {
	gen    *trace.Generator
	caches *cache.Hierarchy
	tlbs   *tlb.Hierarchy
	pred   *branch.Predictor

	// offset displaces data addresses (the per-copy address-space
	// displacement of multi-copy runs; 0 for a single copy).
	offset uint64
	hasL3  bool
	// lineShift is derived from the machine's L1I line size: the
	// fetch-buffer model issues one cache fetch per *line* transition,
	// so the line geometry, not a constant, decides when PC movement
	// re-fetches.
	lineShift uint

	lastILine, lastIPage uint64

	rc *RawCounts
	// Split miss routing for the CPI stack.
	l1iToL2, l2iToL3, l2iToMem, l3iToMem uint64
	l1dToL2, l2dToL3, l3dToMem, l2dToMem uint64

	slab []trace.Event
}

// newSimStream assembles a stream around acquired leaf state.
func newSimStream(gen *trace.Generator, ls *leafState, rc *RawCounts, offset uint64) *simStream {
	return &simStream{
		gen: gen, caches: ls.caches, tlbs: ls.tlbs, pred: ls.pred,
		rc:        rc,
		offset:    offset,
		hasL3:     ls.caches.L3 != nil,
		lineShift: uint(bits.TrailingZeros(uint(ls.caches.L1I.Config().LineBytes))),
		lastILine: ^uint64(0), lastIPage: ^uint64(0),
		slab: ls.slab,
	}
}

// warmupEvent drives one event through the simulators without
// counting: cache, TLB, and predictor state advance; statistics are
// reset after warmup anyway.
func (st *simStream) warmupEvent(ev *trace.Event) {
	if iline := ev.PC >> st.lineShift; iline != st.lastILine {
		st.lastILine = iline
		st.caches.FetchInstr(ev.PC)
	}
	if ipage := ev.PC >> tlb.PageShift; ipage != st.lastIPage {
		st.lastIPage = ipage
		st.tlbs.TranslateInstr(ev.PC)
	}
	switch ev.Kind {
	case trace.Load, trace.Store:
		st.caches.AccessData(ev.Addr + st.offset)
		st.tlbs.TranslateData(ev.Addr + st.offset)
	case trace.CondBranch:
		st.pred.Predict(ev.PC, ev.Taken)
	}
}

// measureEvent drives one event through the simulators and counts it:
// instruction/class totals into RawCounts, and each miss into the
// level-routing tables the CPI stack charges stall cycles to.
func (st *simStream) measureEvent(ev *trace.Event) {
	rc := st.rc
	rc.Instructions++
	if ev.Kernel {
		rc.KernelInstrs++
	}

	// Instruction side: fetch once per line transition; the same-line
	// fast path models the fetch buffer.
	if iline := ev.PC >> st.lineShift; iline != st.lastILine {
		st.lastILine = iline
		switch st.caches.FetchInstr(ev.PC) {
		case 1:
			st.l1iToL2++
		case 2:
			st.l1iToL2++
			st.l2iToL3++
		case 3:
			st.l1iToL2++
			if st.hasL3 {
				st.l2iToL3++
				st.l3iToMem++
			} else {
				st.l2iToMem++
			}
		}
	}
	if ipage := ev.PC >> tlb.PageShift; ipage != st.lastIPage {
		st.lastIPage = ipage
		st.tlbs.TranslateInstr(ev.PC)
	}

	switch ev.Kind {
	case trace.Load, trace.Store:
		if ev.Kind == trace.Load {
			rc.Loads++
		} else {
			rc.Stores++
		}
		switch st.caches.AccessData(ev.Addr + st.offset) {
		case 1:
			st.l1dToL2++
		case 2:
			st.l1dToL2++
			st.l2dToL3++
		case 3:
			st.l1dToL2++
			if st.hasL3 {
				st.l2dToL3++
				st.l3dToMem++
			} else {
				st.l2dToMem++
			}
		}
		st.tlbs.TranslateData(ev.Addr + st.offset)
	case trace.CondBranch:
		rc.Branches++
		if ev.Taken {
			rc.TakenBranches++
		}
		st.pred.Predict(ev.PC, ev.Taken)
	case trace.FPOp:
		rc.FPOps++
	case trace.SIMDOp:
		rc.SIMDOps++
	}
}

// warmup runs n warmup instructions through the stream, slab by slab.
func (st *simStream) warmup(n int) {
	for n > 0 {
		k := min(n, len(st.slab))
		st.gen.FillBatch(st.slab[:k])
		for i := range st.slab[:k] {
			st.warmupEvent(&st.slab[i])
		}
		n -= k
	}
}

// measure runs n measured instructions through the stream, slab by
// slab. The caller resets simulator statistics first.
func (st *simStream) measure(n int) {
	for n > 0 {
		k := min(n, len(st.slab))
		st.gen.FillBatch(st.slab[:k])
		for i := range st.slab[:k] {
			st.measureEvent(&st.slab[i])
		}
		n -= k
	}
}

// runInterleaved advances every stream by n instructions in strict
// round-robin order — copy 0's instruction i, copy 1's instruction i,
// ... — preserving the shared-LLC access interleaving of multi-copy
// runs. Trace generation is still batched per stream: each generator's
// draw order is private, so filling copy slabs ahead of consumption
// changes nothing about the simulated access sequence.
func runInterleaved(streams []*simStream, n int, measured bool) {
	for n > 0 {
		k := n
		if k > simSlabSize {
			k = simSlabSize
		}
		for _, st := range streams {
			st.gen.FillBatch(st.slab[:k])
		}
		if measured {
			for i := 0; i < k; i++ {
				for _, st := range streams {
					st.measureEvent(&st.slab[i])
				}
			}
		} else {
			for i := 0; i < k; i++ {
				for _, st := range streams {
					st.warmupEvent(&st.slab[i])
				}
			}
		}
		n -= k
	}
}

// resetStats clears simulator statistics at the warmup/measure
// boundary, keeping cache, TLB, and predictor contents warm.
func (st *simStream) resetStats() {
	st.caches.ResetStats()
	st.tlbs.ResetStats()
	st.pred.ResetStats()
}

// finalize folds the stream's counters into its RawCounts: simulator
// snapshots, the CPI stack, and the cycle total.
func (st *simStream) finalize(issueWidth int, ilp float64, pen cpistack.Penalties) error {
	rc := st.rc
	rc.Cache = st.caches.Counts()
	rc.TLB = st.tlbs.Counts()
	rc.Mispredicts = st.pred.Counts().Mispredicts

	stack, err := cpistack.Compute(cpistack.Inputs{
		Instructions: rc.Instructions,
		BaseCPI:      1 / ilp,
		IdealCPI:     1 / float64(issueWidth),
		Mispredicts:  rc.Mispredicts,
		L1IMissToL2:  st.l1iToL2,
		L2IMissToL3:  st.l2iToL3,
		L2IMissToMem: st.l2iToMem,
		L3IMissToMem: st.l3iToMem,
		L1DMissToL2:  st.l1dToL2,
		L2DMissToL3:  st.l2dToL3,
		L3DMissToMem: st.l3dToMem + st.l2dToMem,
		PageWalks:    rc.TLB.PageWalks,
	}, pen)
	if err != nil {
		return err
	}
	rc.Stack = stack
	rc.CPI = stack.Total()
	rc.Cycles = uint64(rc.CPI * float64(rc.Instructions))
	return nil
}
