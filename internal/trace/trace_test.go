package trace

import (
	"math"
	"testing"

	"repro/internal/branch"
)

// testSpec is a plausible mid-weight workload.
func testSpec() Spec {
	return Spec{
		LoadFrac: 0.25, StoreFrac: 0.10, BranchFrac: 0.15,
		FPFrac: 0.10, SIMDFrac: 0.05, KernelFrac: 0.0,
		HotBytes: 16 << 10, MidBytes: 160 << 10, WarmBytes: 1 << 20, FootprintBytes: 64 << 20,
		HotFrac: 0.45, MidFrac: 0.05, WarmFrac: 0.3, StrideFrac: 0.1,
		CodeBytes: 64 << 10, HotCodeBytes: 8 << 10, HotCodeFrac: 0.9,
		BranchEntropy: 0.2, TakenFrac: 0.6,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.LoadFrac = -0.1 },
		func(s *Spec) { s.TakenFrac = 1.5 },
		func(s *Spec) { s.LoadFrac, s.StoreFrac, s.BranchFrac = 0.5, 0.4, 0.2 },
		func(s *Spec) { s.HotFrac, s.WarmFrac, s.StrideFrac = 0.5, 0.5, 0.5 },
		func(s *Spec) { s.BranchFrac = 0 },
		func(s *Spec) { s.HotBytes = 0 },
		func(s *Spec) { s.MidBytes = s.HotBytes - 1 },
		func(s *Spec) { s.WarmBytes = s.MidBytes - 1 },
		func(s *Spec) { s.FootprintBytes = s.WarmBytes - 1 },
		func(s *Spec) { s.CodeBytes = 0 },
		func(s *Spec) { s.HotCodeBytes = s.CodeBytes + 1 },
	}
	for i, mutate := range mutations {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the spec", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(testSpec(), "wl")
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(testSpec(), "wl")
	var e1, e2 Event
	for i := 0; i < 10000; i++ {
		g1.Next(&e1)
		g2.Next(&e2)
		if e1 != e2 {
			t.Fatalf("trace diverged at instruction %d: %+v vs %+v", i, e1, e2)
		}
	}
}

func TestGeneratorKeySensitivity(t *testing.T) {
	g1, _ := NewGenerator(testSpec(), "a")
	g2, _ := NewGenerator(testSpec(), "b")
	var e1, e2 Event
	diff := 0
	for i := 0; i < 1000; i++ {
		g1.Next(&e1)
		g2.Next(&e2)
		if e1 != e2 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different keys must produce different traces")
	}
}

// drain runs n events and tallies them.
func drain(t *testing.T, g *Generator, n int) map[Kind]int {
	t.Helper()
	counts := make(map[Kind]int)
	var ev Event
	for i := 0; i < n; i++ {
		g.Next(&ev)
		counts[ev.Kind]++
	}
	return counts
}

func TestInstructionMixMatchesSpec(t *testing.T) {
	spec := testSpec()
	g, err := NewGenerator(spec, "mix")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	counts := drain(t, g, n)
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if math.Abs(frac-want) > 0.02 {
			t.Errorf("%s fraction %v, want ≈%v", name, frac, want)
		}
	}
	check("load", counts[Load], spec.LoadFrac)
	check("store", counts[Store], spec.StoreFrac)
	// Branch fraction is quantized to 1/blockLen.
	wantBranch := 1 / float64(g.BlockLen())
	check("branch", counts[CondBranch], wantBranch)
	check("fp", counts[FPOp], spec.FPFrac)
	check("simd", counts[SIMDOp], spec.SIMDFrac)
}

func TestBlockLenDerivation(t *testing.T) {
	s := testSpec()
	s.BranchFrac = 0.10
	g, _ := NewGenerator(s, "bl")
	if g.BlockLen() != 10 {
		t.Fatalf("BlockLen = %d, want 10", g.BlockLen())
	}
	s.BranchFrac = 0.8 // degenerate: clamp to 2
	s.LoadFrac, s.StoreFrac = 0.1, 0.05
	g, err := NewGenerator(s, "bl")
	if err != nil {
		t.Fatal(err)
	}
	if g.BlockLen() != 2 {
		t.Fatalf("BlockLen = %d, want clamp to 2", g.BlockLen())
	}
}

func TestTakenFraction(t *testing.T) {
	spec := testSpec()
	g, _ := NewGenerator(spec, "taken")
	var ev Event
	branches, taken := 0, 0
	for i := 0; i < 500000; i++ {
		g.Next(&ev)
		if ev.Kind == CondBranch {
			branches++
			if ev.Taken {
				taken++
			}
		}
	}
	frac := float64(taken) / float64(branches)
	if math.Abs(frac-spec.TakenFrac) > 0.08 {
		t.Fatalf("taken fraction %v, want ≈%v", frac, spec.TakenFrac)
	}
}

func TestDataAddressesWithinFootprint(t *testing.T) {
	spec := testSpec()
	g, _ := NewGenerator(spec, "addr")
	var ev Event
	for i := 0; i < 200000; i++ {
		g.Next(&ev)
		if ev.Kind == Load || ev.Kind == Store {
			if ev.Addr < DataBase || ev.Addr >= DataBase+spec.FootprintBytes {
				t.Fatalf("address %#x outside data region", ev.Addr)
			}
			if ev.Addr%8 != 0 {
				t.Fatalf("address %#x not 8-byte aligned", ev.Addr)
			}
		}
	}
}

func TestHotRegionConcentration(t *testing.T) {
	spec := testSpec()
	spec.HotFrac, spec.MidFrac, spec.WarmFrac, spec.StrideFrac = 0.9, 0, 0, 0
	g, _ := NewGenerator(spec, "hot")
	var ev Event
	mem, inHot := 0, 0
	for i := 0; i < 300000; i++ {
		g.Next(&ev)
		if ev.Kind == Load || ev.Kind == Store {
			mem++
			if ev.Addr-DataBase < spec.HotBytes {
				inHot++
			}
		}
	}
	frac := float64(inHot) / float64(mem)
	if frac < 0.88 { // 0.9 hot + cold accesses that land in [0, HotBytes) by chance
		t.Fatalf("hot-region fraction %v, want ≳0.9", frac)
	}
}

func TestCodeFootprintBounds(t *testing.T) {
	spec := testSpec()
	g, _ := NewGenerator(spec, "code")
	var ev Event
	for i := 0; i < 100000; i++ {
		g.Next(&ev)
		if ev.Kernel {
			continue
		}
		if ev.PC < UserCodeBase || ev.PC >= UserCodeBase+spec.CodeBytes {
			t.Fatalf("PC %#x outside code region of %d bytes", ev.PC, spec.CodeBytes)
		}
	}
}

func TestKernelFraction(t *testing.T) {
	spec := testSpec()
	spec.KernelFrac = 0.3
	g, _ := NewGenerator(spec, "kern")
	var ev Event
	kern := 0
	const n = 500000
	for i := 0; i < n; i++ {
		g.Next(&ev)
		if ev.Kernel {
			kern++
		}
	}
	frac := float64(kern) / n
	if math.Abs(frac-0.3) > 0.08 {
		t.Fatalf("kernel fraction %v, want ≈0.3", frac)
	}
}

func TestNoKernelWhenZero(t *testing.T) {
	g, _ := NewGenerator(testSpec(), "nokern")
	var ev Event
	for i := 0; i < 100000; i++ {
		g.Next(&ev)
		if ev.Kernel {
			t.Fatal("KernelFrac=0 must never produce kernel events")
		}
	}
}

func TestStridePurelySequential(t *testing.T) {
	spec := testSpec()
	spec.HotFrac, spec.MidFrac, spec.WarmFrac, spec.StrideFrac = 0, 0, 0, 1
	spec.MemStreams = 1
	g, _ := NewGenerator(spec, "stride")
	var ev Event
	var last uint64
	seen := false
	for i := 0; i < 50000; i++ {
		g.Next(&ev)
		if ev.Kind != Load && ev.Kind != Store {
			continue
		}
		if seen && ev.Addr != last+strideStep && ev.Addr >= last {
			t.Fatalf("stride stream jumped from %#x to %#x", last, ev.Addr)
		}
		last, seen = ev.Addr, true
	}
}

func TestCorrelatedBranchesFavorHistoryPredictors(t *testing.T) {
	// A pure pattern workload: gshare must strongly out-predict
	// bimodal, because the outcomes are deterministic in global
	// history (plus 8% noise) but near 50/50 marginally.
	spec := testSpec()
	spec.BranchEntropy = 0
	spec.PatternFrac = 1
	spec.HotCodeFrac = 1
	spec.CodeBytes = 4 << 10
	spec.HotCodeBytes = 4 << 10
	g, _ := NewGenerator(spec, "corr")
	gs, err := branch.New(branch.Config{Kind: branch.GShare, TableBits: 14, HistoryBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	bi, _ := branch.New(branch.Config{Kind: branch.Bimodal, TableBits: 14})
	var ev Event
	for i := 0; i < 400000; i++ {
		g.Next(&ev)
		if ev.Kind == CondBranch {
			gs.Predict(ev.PC, ev.Taken)
			bi.Predict(ev.PC, ev.Taken)
		}
	}
	gsRate, biRate := gs.MispredictRate(), bi.MispredictRate()
	if gsRate > 0.15 {
		t.Errorf("gshare mispredict rate %v, want < 0.15 (learnable correlation)", gsRate)
	}
	if gsRate*1.3 > biRate {
		t.Errorf("gshare (%v) should clearly beat bimodal (%v) on correlated branches", gsRate, biRate)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		IntOp: "int", FPOp: "fp", SIMDOp: "simd",
		Load: "load", Store: "store", CondBranch: "branch", Kind(9): "Kind(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestColdBlocksShareOneBranchState: only the hot blocks carry branch
// state of their own; every colder block reads the shared coldBranch,
// so a large binary costs no per-block table.
func TestColdBlocksShareOneBranchState(t *testing.T) {
	spec := testSpec()
	spec.CodeBytes = 16 << 20
	g, err := NewGenerator(spec, "cold-branches")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.branches) != g.hotBlocks || g.hotBlocks >= g.nBlocks {
		t.Fatalf("%d branch states for %d hot of %d blocks", len(g.branches), g.hotBlocks, g.nBlocks)
	}
	if g.userBranch(g.hotBlocks-1) == &coldBranch {
		t.Error("last hot block reads the shared cold state")
	}
	if b := g.userBranch(g.nBlocks - 1); b != &coldBranch || *b != (branchState{kind: easyBranch, bias: 0.995}) {
		t.Errorf("cold block state = %+v, want the shared strongly-taken state", *b)
	}
}
