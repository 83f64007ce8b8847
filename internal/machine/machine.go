// Package machine models the seven commercial systems of the paper's
// Table IV. Each Machine composes a branch predictor, a cache
// hierarchy, and a TLB hierarchy with per-machine latency, power, and
// ISA parameters; Run drives a synthetic workload trace through the
// composed simulators and returns the raw event counts from which the
// paper's performance-counter metrics are derived.
//
// Cache geometries follow Table IV with power-of-two roundings where
// the real part's set count is not a power of two (30 MB -> 32 MB,
// 15 MB -> 16 MB, 6 MB -> 4 MB); DESIGN.md records the substitutions.
package machine

import (
	"fmt"
	"sync"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpistack"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// ISA identifies the instruction-set family of a machine, used to
// perturb workload traces the way recompilation for another ISA
// perturbs real dynamic instruction streams.
type ISA string

// The ISAs present in Table IV.
const (
	X86   ISA = "x86"
	SPARC ISA = "sparc"
)

// Config fully describes a simulated machine.
type Config struct {
	Name    string
	ISA     ISA
	FreqGHz float64
	// IssueWidth bounds ideal CPI at 1/IssueWidth.
	IssueWidth int

	Caches    cache.HierarchyConfig
	TLBs      tlb.HierarchyConfig
	Predictor branch.Config
	Penalties cpistack.Penalties

	// HasRAPL marks the Intel machines whose power the paper measures;
	// Power is consulted only when HasRAPL is true.
	HasRAPL bool
	Power   power.Model
}

// Validate reports the first invalid field. A config that validates
// builds: every component's Validate checks exactly what its
// constructor would reject.
func (cfg Config) Validate() error {
	if cfg.Name == "" {
		return fmt.Errorf("machine: empty name")
	}
	if cfg.IssueWidth < 1 {
		return fmt.Errorf("machine %s: issue width %d", cfg.Name, cfg.IssueWidth)
	}
	if cfg.FreqGHz <= 0 {
		return fmt.Errorf("machine %s: frequency %v", cfg.Name, cfg.FreqGHz)
	}
	for _, v := range []interface{ Validate() error }{cfg.Caches, cfg.TLBs, cfg.Predictor, cfg.Penalties} {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", cfg.Name, err)
		}
	}
	if cfg.HasRAPL {
		if err := cfg.Power.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", cfg.Name, err)
		}
	}
	return nil
}

// Machine is a ready-to-run instance of a Config. It is safe for
// concurrent use: each run takes its own simulation state from the
// machine's pool (see leaf.go).
type Machine struct {
	cfg    Config
	leaves sync.Pool // of *leafState
}

// New validates cfg and returns a Machine. Nothing is built until the
// first run.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name returns the machine's name.
func (m *Machine) Name() string { return m.cfg.Name }

// Workload couples a trace specification with the properties the
// trace generator does not model directly.
type Workload struct {
	// Key seeds the trace streams; use a globally unique benchmark
	// name (plus input-set suffix).
	Key string
	// Spec is the ISA-neutral statistical description.
	Spec trace.Spec
	// ILP is the workload's average exploitable instruction-level
	// parallelism, bounding its ideal CPI from below by 1/ILP.
	ILP float64
}

// RawCounts are the per-run event totals — the simulated equivalent of
// one `perf stat` session on one machine.
type RawCounts struct {
	Instructions  uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	TakenBranches uint64
	FPOps         uint64
	SIMDOps       uint64
	KernelInstrs  uint64

	Mispredicts uint64
	Cache       cache.Counts
	TLB         tlb.Counts

	Cycles uint64
	CPI    float64
	Stack  cpistack.Stack

	// Power is zero unless the machine HasRAPL.
	Power power.Breakdown
}

// RunOptions control a measurement run.
type RunOptions struct {
	// Instructions measured after warmup. Defaults to 400 000.
	Instructions int
	// WarmupInstructions executed before counters reset.
	// Defaults to Instructions/5.
	WarmupInstructions int
	// Parallelism bounds the number of concurrent per-machine runs a
	// fleet characterization may use (see core.Characterize). It does
	// not affect a single Run, and it never affects results — runs are
	// deterministic regardless of scheduling. 0 means GOMAXPROCS;
	// 1 forces fully serial measurement.
	Parallelism int
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Instructions <= 0 {
		o.Instructions = 400_000
	}
	if o.WarmupInstructions <= 0 {
		o.WarmupInstructions = o.Instructions / 5
	}
	return o
}

// Canonical returns the options with measurement defaults applied and
// scheduling-only knobs (Parallelism) cleared. Two RunOptions with the
// same Canonical value produce bit-identical measurements, so Canonical
// is the correct cache identity for characterization results.
func (o RunOptions) Canonical() RunOptions {
	o = o.withDefaults()
	o.Parallelism = 0
	return o
}

// OptionError reports one invalid RunOptions field. It is the typed
// error both the spec17 flag parser and the spec17d decode path
// surface, so clients can distinguish which knob was wrong.
type OptionError struct {
	// Field is the option's user-facing name ("instructions",
	// "warmup", "parallelism").
	Field string
	// Value is the rejected value.
	Value int
	// Reason says what a valid value looks like.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("machine: invalid %s %d: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options as given, before defaults are applied
// (zero values are valid — they select the defaults). The warmup
// bound is checked against the effective instruction count: warmup
// must leave room to measure.
func (o RunOptions) Validate() error {
	if o.Instructions < 0 {
		return &OptionError{Field: "instructions", Value: o.Instructions,
			Reason: "instruction count cannot be negative"}
	}
	if o.WarmupInstructions < 0 {
		return &OptionError{Field: "warmup", Value: o.WarmupInstructions,
			Reason: "warmup instruction count cannot be negative"}
	}
	if o.Parallelism < 0 {
		return &OptionError{Field: "parallelism", Value: o.Parallelism,
			Reason: "worker count cannot be negative"}
	}
	if d := o.withDefaults(); o.WarmupInstructions >= d.Instructions {
		return &OptionError{Field: "warmup", Value: o.WarmupInstructions,
			Reason: fmt.Sprintf("warmup must be smaller than the %d measured instructions", d.Instructions)}
	}
	return nil
}

// Run measures one workload on the machine.
func (m *Machine) Run(w Workload, opts RunOptions) (*RawCounts, error) {
	if w.ILP <= 0 {
		return nil, fmt.Errorf("machine: workload %q has non-positive ILP", w.Key)
	}
	opts = opts.withDefaults()

	spec := m.adjustSpec(w)
	gen, err := trace.NewGenerator(spec, w.Key+"@"+m.cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("machine %s: workload %q: %w", m.cfg.Name, w.Key, err)
	}

	rc := &RawCounts{}
	var st *simStream
	err = m.withLeaves(1, func(leaves []*leafState) error {
		st = newSimStream(gen, leaves[0], rc, 0)
		prime(st.caches, st.tlbs, spec)
		st.warmup(opts.WarmupInstructions)
		st.resetStats()
		st.measure(opts.Instructions)
		return st.finalize(m.cfg.IssueWidth, w.ILP, m.cfg.Penalties)
	})
	if err != nil {
		return nil, err
	}

	if m.cfg.HasRAPL {
		bd, err := m.cfg.Power.Estimate(power.Activity{
			Instructions: rc.Instructions,
			Cycles:       rc.Cycles,
			FPOps:        rc.FPOps,
			SIMDOps:      rc.SIMDOps,
			LLCAccesses:  rc.Cache.L2IAccesses + rc.Cache.L2DAccesses + rc.Cache.L3Accesses,
			MemAccesses:  rc.Cache.L3Misses + st.l2dToMem + st.l2iToMem,
		})
		if err != nil {
			return nil, err
		}
		rc.Power = bd
	}
	return rc, nil
}

// prime walks the workload's resident working set through the cache
// and TLB hierarchies once, coldest region first, so a short sampling
// window measures steady-state behaviour instead of fill transients.
// Real measurement (the paper runs complete benchmarks under perf)
// has no fill transient worth mentioning; a sampled simulation must
// reconstruct that state explicitly. The cold region beyond WarmBytes
// is deliberately not primed: footprints exceed every LLC, so cold
// accesses miss in steady state too.
func prime(caches *cache.Hierarchy, tlbs *tlb.Hierarchy, spec trace.Spec) {
	primeOffset(caches, tlbs, spec, 0)
}

// primeOffset primes with the data regions shifted by offset — the
// per-copy address-space displacement of multi-copy (SPECrate) runs.
func primeOffset(caches *cache.Hierarchy, tlbs *tlb.Hierarchy, spec trace.Spec, offset uint64) {
	const (
		line     = 64
		page     = 1 << tlb.PageShift
		maxPrime = 8 << 20 // never prime more than any LLC could hold
	)
	primeData := func(base, size uint64) {
		if size > maxPrime {
			size = maxPrime
		}
		for off := uint64(0); off < size; off += line {
			caches.AccessData(base + off)
		}
		for off := uint64(0); off < size; off += page {
			tlbs.TranslateData(base + off)
		}
	}
	primeCode := func(base, size uint64) {
		if size > maxPrime/2 {
			size = maxPrime / 2
		}
		for off := uint64(0); off < size; off += line {
			caches.FetchInstr(base + off)
		}
		for off := uint64(0); off < size; off += page {
			tlbs.TranslateInstr(base + off)
		}
	}
	if spec.KernelFrac > 0 {
		primeCode(trace.KernelCodeBase, trace.KernelCodeBytes)
		primeData(trace.KernelDataBase+offset, trace.KernelDataBytes)
	}
	primeCode(trace.UserCodeBase, spec.CodeBytes)
	// Data: warm first, then mid, then hot, so the hottest lines end up
	// most recently used.
	primeData(trace.DataBase+offset, spec.WarmBytes)
	primeData(trace.DataBase+offset, spec.MidBytes)
	primeData(trace.DataBase+offset, spec.HotBytes)
	// Re-fetch the hot code region last for the same reason.
	primeCode(trace.UserCodeBase, spec.HotCodeBytes)
}

// AdjustedSpec returns the trace specification Run would execute for w
// on this machine: the neutral spec with the machine's ISA and
// compiler perturbations applied. Analytic measurement engines model
// this spec, not the neutral one, so their estimates see the same
// per-(workload, machine) stream a simulation would.
func (m *Machine) AdjustedSpec(w Workload) trace.Spec { return m.adjustSpec(w) }

// adjustSpec applies ISA and compiler perturbations to the neutral
// workload spec, modelling what recompilation on another machine does
// to a real dynamic instruction stream. The perturbation is
// deterministic per (workload, machine).
func (m *Machine) adjustSpec(w Workload) trace.Spec {
	spec := w.Spec
	if m.cfg.ISA == SPARC {
		// RISC recompilation: more instructions overall, so each
		// category's share shifts slightly, and code grows.
		spec.LoadFrac *= 1.06
		spec.StoreFrac *= 1.06
		spec.BranchFrac *= 1.08
		spec.CodeBytes = spec.CodeBytes * 5 / 4
		spec.HotCodeBytes = spec.HotCodeBytes * 5 / 4
	}
	// Compiler/system jitter: ±3% multiplicative noise on the mix and
	// locality knobs, keyed by workload and machine.
	r := rng.NewKeyed(w.Key+"|"+m.cfg.Name, 0xC0)
	jitter := func(v float64) float64 {
		return v * (1 + (r.Float64()-0.5)*0.06)
	}
	spec.LoadFrac = clamp01(jitter(spec.LoadFrac))
	spec.StoreFrac = clamp01(jitter(spec.StoreFrac))
	spec.BranchEntropy = clamp01(jitter(spec.BranchEntropy))
	// Data regions: jitter each *miss-producing* fraction relative to
	// itself — including the implicit cold remainder — and let the hot
	// fraction absorb the balance. Jittering hot directly would leak
	// several percent of references into the cold region, swamping the
	// workload's intended memory behaviour.
	cold := 1 - spec.HotFrac - spec.MidFrac - spec.WarmFrac - spec.StrideFrac
	if cold < 0 {
		cold = 0
	}
	cold = clamp01(jitter(cold))
	spec.MidFrac = clamp01(jitter(spec.MidFrac))
	spec.WarmFrac = clamp01(jitter(spec.WarmFrac))
	spec.HotFrac = 1 - cold - spec.MidFrac - spec.WarmFrac - spec.StrideFrac - 1e-9
	if spec.HotFrac < 0 {
		// Degenerate: no hot traffic; shrink the others proportionally.
		f := (1 - 1e-9) / (cold + spec.MidFrac + spec.WarmFrac + spec.StrideFrac)
		spec.MidFrac *= f
		spec.WarmFrac *= f
		spec.StrideFrac *= f
		spec.HotFrac = 0
	}
	// Keep the spec valid after perturbation.
	if s := spec.LoadFrac + spec.StoreFrac + spec.BranchFrac; s > 0.99 {
		spec.LoadFrac *= 0.99 / s
		spec.StoreFrac *= 0.99 / s
		spec.BranchFrac *= 0.99 / s
	}
	return spec
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
