// Package trace generates deterministic synthetic instruction traces
// from statistical workload specifications. A trace is the stream of
// per-instruction events (kind, program counter, data address, branch
// outcome) consumed by the cache, TLB, and branch-predictor simulators
// in place of the proprietary SPEC binaries the paper executed.
//
// The generator models the program properties the paper's metrics are
// sensitive to, and nothing else:
//
//   - instruction mix (load/store/branch/FP/SIMD/kernel fractions),
//   - code footprint and hot-loop concentration (I-cache, I-TLB),
//   - a three-region data working-set model plus streaming accesses
//     (D-cache hierarchy, D-TLB),
//   - per-branch bias, pattern, and entropy (branch predictors).
package trace

import (
	"fmt"

	"repro/internal/rng"
)

// Kind classifies one dynamic instruction.
type Kind uint8

// Instruction kinds. IntOp covers scalar integer ALU work; FPOp scalar
// floating point; SIMDOp vector work of either domain.
const (
	IntOp Kind = iota
	FPOp
	SIMDOp
	Load
	Store
	CondBranch
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case IntOp:
		return "int"
	case FPOp:
		return "fp"
	case SIMDOp:
		return "simd"
	case Load:
		return "load"
	case Store:
		return "store"
	case CondBranch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one dynamic instruction.
type Event struct {
	Kind   Kind
	PC     uint64 // instruction address
	Addr   uint64 // effective address for Load/Store, else 0
	Taken  bool   // outcome for CondBranch
	Kernel bool   // executed in kernel mode
}

// Spec is the statistical description of a workload. All fractions are
// of dynamic instructions and must lie in [0, 1]; region sizes are in
// bytes. See internal/workloads for the profile database that fills
// these in from the paper's published data.
type Spec struct {
	// Instruction mix. BranchFrac determines the basic-block length
	// (every block ends in exactly one conditional branch); the
	// remaining instruction slots are split between loads, stores, and
	// ALU work, with FPFrac/SIMDFrac selecting the ALU flavour.
	LoadFrac, StoreFrac, BranchFrac float64
	FPFrac, SIMDFrac                float64
	KernelFrac                      float64

	// Data-side working sets, four nested regions (all based at 0):
	// hot (stack and hot structs, sized to fit any L1), mid (the
	// blocked/tiled working set, typically between L1 and L2 sizes),
	// warm (the phase working set, between L2 and L3 sizes), and the
	// full footprint. HotFrac/MidFrac/WarmFrac/StrideFrac select where
	// each reference goes; the remainder is uniform over the footprint
	// ("cold", the pointer-chasing component that reaches DRAM).
	HotBytes, MidBytes, WarmBytes, FootprintBytes uint64
	HotFrac, MidFrac, WarmFrac, StrideFrac        float64
	// MemStreams is the number of concurrent sequential streams for
	// the StrideFrac component (default 4).
	MemStreams int

	// Code side: total static code and the size of the hot (loop)
	// portion that receives HotCodeFrac of the execution. Cold-code
	// excursions mostly land in a WarmCodeBytes-sized working set
	// (defaulting to min(96 KiB, CodeBytes)), with a 5% tail over the
	// full footprint — real programs keep their active code within a
	// second-level-cache-sized region even when the binary is huge.
	CodeBytes, HotCodeBytes, WarmCodeBytes uint64
	HotCodeFrac                            float64

	// Branch behaviour is a three-way mixture over static branches:
	//
	//   - "hard" branches (probability BranchEntropy): Bernoulli with
	//     a near-0.5 bias — every predictor mispredicts them ~45% of
	//     the time (leela's and mcf's data-dependent branches);
	//   - "correlated" branches (probability PatternFrac of the rest):
	//     all follow the hot loop's iteration phase, which flips every
	//     pass (red-black sweeps, odd/even iteration work), plus 0.5%
	//     noise. Their outcomes alternate — a bimodal counter
	//     mispredicts ~50% — but every phase flip is visible in recent
	//     global history, so history-based predictors (gshare,
	//     tournament) learn them almost perfectly. These are the
	//     predictor-quality-sensitive branches of loop-nest codes like
	//     bwaves;
	//   - "easy" branches (the remainder): Bernoulli with a 0.995 or
	//     0.005 bias, predicted correctly ~99.5% of the time everywhere.
	//
	// TakenFrac sets the workload's overall taken fraction; the
	// generator solves for the easy branches' taken/not-taken split
	// (hard and correlated branches are ~50% taken).
	BranchEntropy float64
	PatternFrac   float64
	TakenFrac     float64
}

// Validate reports the first implausible field.
func (s Spec) Validate() error {
	fracs := map[string]float64{
		"LoadFrac": s.LoadFrac, "StoreFrac": s.StoreFrac, "BranchFrac": s.BranchFrac,
		"FPFrac": s.FPFrac, "SIMDFrac": s.SIMDFrac, "KernelFrac": s.KernelFrac,
		"HotFrac": s.HotFrac, "MidFrac": s.MidFrac, "WarmFrac": s.WarmFrac, "StrideFrac": s.StrideFrac,
		"HotCodeFrac": s.HotCodeFrac, "BranchEntropy": s.BranchEntropy, "PatternFrac": s.PatternFrac,
		"TakenFrac": s.TakenFrac,
	}
	for name, f := range fracs {
		if f < 0 || f > 1 {
			return fmt.Errorf("trace: %s = %v outside [0,1]", name, f)
		}
	}
	if s.LoadFrac+s.StoreFrac+s.BranchFrac > 1 {
		return fmt.Errorf("trace: load+store+branch fractions exceed 1 (%v)",
			s.LoadFrac+s.StoreFrac+s.BranchFrac)
	}
	if s.HotFrac+s.MidFrac+s.WarmFrac+s.StrideFrac > 1 {
		return fmt.Errorf("trace: hot+mid+warm+stride fractions exceed 1 (%v)",
			s.HotFrac+s.MidFrac+s.WarmFrac+s.StrideFrac)
	}
	if s.BranchFrac <= 0 {
		return fmt.Errorf("trace: BranchFrac must be positive (blocks end in a branch)")
	}
	if s.HotBytes == 0 || s.MidBytes < s.HotBytes || s.WarmBytes < s.MidBytes || s.FootprintBytes < s.WarmBytes {
		return fmt.Errorf("trace: need 0 < HotBytes (%d) <= MidBytes (%d) <= WarmBytes (%d) <= FootprintBytes (%d)",
			s.HotBytes, s.MidBytes, s.WarmBytes, s.FootprintBytes)
	}
	if s.CodeBytes == 0 || s.HotCodeBytes == 0 || s.HotCodeBytes > s.CodeBytes {
		return fmt.Errorf("trace: need 0 < HotCodeBytes (%d) <= CodeBytes (%d)", s.HotCodeBytes, s.CodeBytes)
	}
	return nil
}

// Address-space layout of generated traces. UserCodeBase and
// KernelCodeBase separate the two code regions so kernel-heavy
// workloads (databases) pressure the I-cache with a second footprint,
// as the paper observes for Cassandra. The bases are exported so the
// measurement harness can prime caches and TLBs with the resident
// working set before sampling.
const (
	UserCodeBase   uint64 = 0x0040_0000
	KernelCodeBase uint64 = 0x4000_0000
	KernelDataBase uint64 = 0x6000_0000
	DataBase       uint64 = 0x1_0000_0000

	// KernelCodeBytes is the fixed size of the kernel code region and
	// KernelDataBytes of the kernel data region; KernelHotDataBytes is
	// the slice of it that receives most kernel references.
	KernelCodeBytes    uint64 = 128 << 10
	KernelDataBytes    uint64 = 1 << 20
	KernelHotDataBytes uint64 = 32 << 10
)

const (
	instrBytes = 4 // fixed encoding; adequate for I-side locality modelling
	strideStep = 8
)

// branchKind classifies one static branch's behaviour.
type branchKind uint8

const (
	easyBranch branchKind = iota
	hardBranch
	corrBranch
)

// branchState is the behavioural state of one static branch.
type branchState struct {
	kind branchKind
	bias float64 // Bernoulli taken probability (easy/hard)
}

// coldBranch is the behaviour every user block at or beyond hotBlocks
// shares: uniformly strongly taken, so their (rarely trained, heavily
// aliased) predictor entries still agree — matching real programs,
// whose cold paths remain predictable. Only the hot blocks get a
// branchState of their own; a 16 MB binary would otherwise carry a
// multi-megabyte table of identical entries.
var coldBranch = branchState{kind: easyBranch, bias: 0.995}

// Generator produces the event stream for one workload. It is not
// safe for concurrent use; create one per goroutine.
type Generator struct {
	spec Spec

	blockLen   int
	nBlocks    int
	hotBlocks  int
	warmBlocks int
	nKBlocks   int // kernel code blocks
	branches   []branchState
	kbranches  []branchState
	streams    []uint64
	streamSpan uint64

	// Instruction-mix thresholds, derived once from the spec so the
	// per-event hot path never re-divides. Each is computed with the
	// exact float expression the per-event code historically used, so
	// comparisons against them are bit-identical to recomputing.
	pLoad      float64 // LoadFrac / (1 - BranchFrac)
	pLoadStore float64 // (LoadFrac + StoreFrac) / (1 - BranchFrac), as pLoad + pStore
	pALU       float64 // 1 - pLoad - pStore
	pSIMD      float64 // SIMDFrac / (1 - BranchFrac)
	pSIMDFP    float64 // (SIMDFrac + FPFrac) / (1 - BranchFrac)
	pEnterKern float64 // per-block kernel-episode entry probability
	dHotT      float64 // StrideFrac + HotFrac
	dMidT      float64 // StrideFrac + HotFrac + MidFrac
	dWarmT     float64 // StrideFrac + HotFrac + MidFrac + WarmFrac

	// Per-instruction state.
	curBlock   int
	curHot     int
	blockPos   int
	inKernel   bool
	kernBudget int
	phase      bool // hot-loop iteration phase (flips per pass)

	rBlock, rMix, rData, rBranch, rKernel *rng.Rand
}

// NewGenerator builds a generator for spec. The key seeds all random
// streams: the same (spec, key) pair always yields the same trace.
func NewGenerator(spec Spec, key string) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		spec:    spec,
		rBlock:  rng.NewKeyed(key, 1),
		rMix:    rng.NewKeyed(key, 2),
		rData:   rng.NewKeyed(key, 3),
		rBranch: rng.NewKeyed(key, 4),
		rKernel: rng.NewKeyed(key, 5),
	}
	g.blockLen = int(1/spec.BranchFrac + 0.5)
	if g.blockLen < 2 {
		g.blockLen = 2
	}
	blockBytes := uint64(g.blockLen * instrBytes)
	g.nBlocks = int(spec.CodeBytes / blockBytes)
	if g.nBlocks < 1 {
		g.nBlocks = 1
	}
	g.hotBlocks = int(spec.HotCodeBytes / blockBytes)
	if g.hotBlocks < 1 {
		g.hotBlocks = 1
	}
	if g.hotBlocks > g.nBlocks {
		g.hotBlocks = g.nBlocks
	}
	warmCode := spec.WarmCodeBytes
	if warmCode == 0 {
		warmCode = 96 << 10
	}
	g.warmBlocks = int(warmCode / blockBytes)
	if g.warmBlocks < g.hotBlocks {
		g.warmBlocks = g.hotBlocks
	}
	if g.warmBlocks > g.nBlocks {
		g.warmBlocks = g.nBlocks
	}
	// Kernel code: a fixed-size region (128 KiB) of its own blocks.
	g.nKBlocks = int(KernelCodeBytes / blockBytes)
	if g.nKBlocks < 1 {
		g.nKBlocks = 1
	}

	g.branches = make([]branchState, g.hotBlocks)
	seedBranches(g.branches, spec, g.rBranch)
	g.kbranches = make([]branchState, g.nKBlocks)
	seedBranches(g.kbranches, spec, g.rBranch)

	n := spec.MemStreams
	if n <= 0 {
		n = 4
	}
	g.streams = make([]uint64, n)
	g.streamSpan = spec.FootprintBytes / uint64(n)
	if g.streamSpan < 64 {
		g.streamSpan = 64
	}
	for i := range g.streams {
		g.streams[i] = uint64(i) * g.streamSpan
	}

	// Hot-path thresholds. The expressions (including association
	// order) mirror the historical per-event computations exactly:
	// FillBatch and Next must stay bit-identical to the code that
	// derived these inline.
	nonBranch := 1 - spec.BranchFrac
	g.pLoad = spec.LoadFrac / nonBranch
	ps := spec.StoreFrac / nonBranch
	g.pLoadStore = g.pLoad + ps
	g.pALU = 1 - g.pLoad - ps
	g.pSIMD = spec.SIMDFrac / nonBranch
	g.pSIMDFP = (spec.SIMDFrac + spec.FPFrac) / nonBranch
	if spec.KernelFrac > 0 {
		enter := spec.KernelFrac / (float64(kernelBurst) * (1 - spec.KernelFrac))
		if enter > 1 {
			enter = 1
		}
		g.pEnterKern = enter
	}
	g.dHotT = spec.StrideFrac + spec.HotFrac
	g.dMidT = spec.StrideFrac + spec.HotFrac + spec.MidFrac
	g.dWarmT = spec.StrideFrac + spec.HotFrac + spec.MidFrac + spec.WarmFrac

	g.curBlock = g.pickBlock()
	return g, nil
}

// seedBranches assigns behaviour to the hot blocks' branches bs from
// the hard/correlated/easy mixture; colder blocks share coldBranch.
func seedBranches(bs []branchState, spec Spec, r *rng.Rand) {
	hotCount := len(bs)
	// Solve for the easy branches' taken share so the hot mixture plus
	// the cold-branch population hits TakenFrac overall:
	//   taken = h*(e*0.5 + (1-e)*(P*0.5 + (1-P)*(q*0.98+0.01))) + (1-h)*0.99,
	// where h is the hot share of branch executions (HotCodeFrac).
	e, P, h := spec.BranchEntropy, spec.PatternFrac, spec.HotCodeFrac
	q := 0.5
	if rest := (1 - e) * (1 - P); rest > 0 && h > 0 {
		hotTaken := (spec.TakenFrac - (1-h)*0.99) / h
		q = (hotTaken - e*0.5 - (1-e)*P*0.5) / rest
		q = (q - 0.005) / 0.99
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
	}
	// Correlated branches occupy a contiguous run of blocks (a loop
	// nest) that wraps the cycle boundary: the run's tail executes
	// just before the phase flips and its head just after, so every
	// correlated branch — including the first ones of a new phase —
	// sees phase-valued bits in its recent history. That stable
	// context is exactly what a gshare predictor needs to learn the
	// phase; a bimodal counter sees only the alternation.
	nCorr := int(P * float64(hotCount))
	tail := nCorr / 2
	if tail > 12 {
		tail = 12
	}
	head := nCorr - tail
	for i := range bs {
		b := &bs[i]
		if i < head || i >= hotCount-tail {
			b.kind = corrBranch
			continue
		}
		switch {
		case r.Bool(e):
			b.kind = hardBranch
			b.bias = 0.35 + r.Float64()*0.3
		default:
			b.kind = easyBranch
			if r.Bool(q) {
				b.bias = 0.995
			} else {
				b.bias = 0.005
			}
		}
	}
}

// Spec returns the specification the generator was built from.
func (g *Generator) Spec() Spec { return g.spec }

// BlockLen returns the derived basic-block length in instructions.
func (g *Generator) BlockLen() int { return g.blockLen }

// pickBlock selects the next basic block to execute. Hot-loop blocks
// execute cyclically (sequential control flow, so history-based
// predictors observe structured context and the fetch stream is
// spatially local); cold-code excursions jump to a uniformly random
// block, modelling rarely-exercised paths.
func (g *Generator) pickBlock() int {
	if g.inKernel {
		return g.rBlock.Intn(g.nKBlocks)
	}
	if g.rBlock.Bool(g.spec.HotCodeFrac) {
		g.curHot++
		if g.curHot >= g.hotBlocks {
			g.curHot = 0
			g.phase = !g.phase // next loop iteration: flip the sweep phase
		}
		return g.curHot
	}
	if g.rBlock.Bool(0.95) {
		return g.rBlock.Intn(g.warmBlocks)
	}
	return g.rBlock.Intn(g.nBlocks)
}

// kernelBurst is the number of blocks per kernel episode.
const kernelBurst = 8

// Next fills ev with the next dynamic instruction.
func (g *Generator) Next(ev *Event) {
	// Kernel episodes: enter with probability such that the long-run
	// kernel fraction matches KernelFrac; each episode runs a burst of
	// blocks, modelling syscall service routines.
	if g.blockPos == 0 {
		if g.inKernel {
			g.kernBudget--
			if g.kernBudget <= 0 {
				g.inKernel = false
			}
		} else if g.spec.KernelFrac > 0 {
			if g.rKernel.Bool(g.pEnterKern) {
				g.inKernel = true
				g.kernBudget = kernelBurst
			}
		}
		g.curBlock = g.pickBlock()
	}

	base := UserCodeBase
	if g.inKernel {
		base = KernelCodeBase
	}
	pc := base + uint64(g.curBlock*g.blockLen+g.blockPos)*instrBytes
	ev.PC = pc
	ev.Kernel = g.inKernel
	ev.Addr = 0
	ev.Taken = false

	if g.blockPos == g.blockLen-1 {
		// Block-terminating conditional branch.
		ev.Kind = CondBranch
		var b *branchState
		if g.inKernel {
			b = &g.kbranches[g.curBlock]
		} else {
			b = g.userBranch(g.curBlock)
		}
		ev.Taken = g.outcome(b)
		g.blockPos = 0
		return
	}
	g.blockPos++

	// Non-branch slot: loads, stores, and ALU ops in their renormalized
	// proportions (thresholds precomputed at construction).
	x := g.rMix.Float64()
	switch {
	case x < g.pLoad:
		ev.Kind = Load
		ev.Addr = g.dataAddr()
	case x < g.pLoadStore:
		ev.Kind = Store
		ev.Addr = g.dataAddr()
	default:
		// ALU flavour by FP/SIMD fractions renormalized over ALU slots.
		if g.pALU <= 0 {
			ev.Kind = IntOp
			return
		}
		y := g.rMix.Float64() * g.pALU
		switch {
		case y < g.pSIMD:
			ev.Kind = SIMDOp
		case y < g.pSIMDFP:
			ev.Kind = FPOp
		default:
			ev.Kind = IntOp
		}
	}
}

// FillBatch fills the caller-owned slab evs with the next len(evs)
// dynamic instructions — the arena API of the batched simulation
// kernel. The generator advances exactly as len(evs) Next calls would:
// every RNG stream draws in the same order, so a trace consumed
// through any mix of FillBatch and Next calls is bit-identical to one
// consumed event by event (TestFillBatchMatchesNext pins this).
//
// The body is Next unrolled across the slab with the per-event state
// (block position, thresholds, RNG handle) held in locals; only the
// once-per-block prologue touches the Generator's fields.
func (g *Generator) FillBatch(evs []Event) {
	var (
		blockLen          = g.blockLen
		pLoad             = g.pLoad
		pLoadStore        = g.pLoadStore
		pALU              = g.pALU
		pSIMD             = g.pSIMD
		pSIMDFP           = g.pSIMDFP
		kernelFrac        = g.spec.KernelFrac
		rMix              = g.rMix
		pos               = g.blockPos
		curBlock          = g.curBlock
		inKernel          = g.inKernel
		base       uint64 = UserCodeBase
	)
	if inKernel {
		base = KernelCodeBase
	}
	for i := range evs {
		ev := &evs[i]
		if pos == 0 {
			if inKernel {
				g.kernBudget--
				if g.kernBudget <= 0 {
					inKernel = false
					g.inKernel = false
				}
			} else if kernelFrac > 0 {
				if g.rKernel.Bool(g.pEnterKern) {
					inKernel = true
					g.inKernel = true
					g.kernBudget = kernelBurst
				}
			}
			curBlock = g.pickBlock()
			if inKernel {
				base = KernelCodeBase
			} else {
				base = UserCodeBase
			}
		}

		ev.PC = base + uint64(curBlock*blockLen+pos)*instrBytes
		ev.Kernel = inKernel
		ev.Addr = 0
		ev.Taken = false

		if pos == blockLen-1 {
			ev.Kind = CondBranch
			var b *branchState
			if inKernel {
				b = &g.kbranches[curBlock]
			} else {
				b = g.userBranch(curBlock)
			}
			ev.Taken = g.outcome(b)
			pos = 0
			continue
		}
		pos++

		x := rMix.Float64()
		switch {
		case x < pLoad:
			ev.Kind = Load
			ev.Addr = g.dataAddr()
		case x < pLoadStore:
			ev.Kind = Store
			ev.Addr = g.dataAddr()
		default:
			if pALU <= 0 {
				ev.Kind = IntOp
				continue
			}
			y := rMix.Float64() * pALU
			switch {
			case y < pSIMD:
				ev.Kind = SIMDOp
			case y < pSIMDFP:
				ev.Kind = FPOp
			default:
				ev.Kind = IntOp
			}
		}
	}
	g.blockPos = pos
	g.curBlock = curBlock
}

// userBranch returns the behaviour of user block i's branch: its own
// state for a hot block, the shared coldBranch otherwise. The state is
// read-only once seeded.
func (g *Generator) userBranch(i int) *branchState {
	if i < len(g.branches) {
		return &g.branches[i]
	}
	return &coldBranch
}

// outcome produces one branch's next direction and updates the global
// outcome history the correlated branches read.
func (g *Generator) outcome(b *branchState) bool {
	var taken bool
	switch b.kind {
	case corrBranch:
		taken = g.phase
		if g.rBranch.Bool(0.005) {
			taken = !taken
		}
	default:
		taken = g.rBranch.Bool(b.bias)
	}
	return taken
}

// dataAddr produces the next load/store effective address.
func (g *Generator) dataAddr() uint64 {
	spec := &g.spec
	if g.inKernel {
		// Kernel data: mostly hot kernel structures, with a colder
		// tail over the wider kernel region.
		if g.rData.Bool(0.8) {
			return KernelDataBase + g.rData.Uint64n(KernelHotDataBytes)&^7
		}
		return KernelDataBase + g.rData.Uint64n(KernelDataBytes)&^7
	}
	x := g.rData.Float64()
	switch {
	case x < spec.StrideFrac:
		i := g.rData.Intn(len(g.streams))
		g.streams[i] += strideStep
		if g.streams[i] >= uint64(i+1)*g.streamSpan {
			g.streams[i] = uint64(i) * g.streamSpan
		}
		return DataBase + g.streams[i]
	case x < g.dHotT:
		return DataBase + g.rData.Uint64n(spec.HotBytes)&^7
	case x < g.dMidT:
		return DataBase + g.rData.Uint64n(spec.MidBytes)&^7
	case x < g.dWarmT:
		return DataBase + g.rData.Uint64n(spec.WarmBytes)&^7
	default:
		return DataBase + g.rData.Uint64n(spec.FootprintBytes)&^7
	}
}
