package branch

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Kind: Bimodal, TableBits: 0},
		{Kind: Bimodal, TableBits: 30},
		{Kind: GShare, TableBits: 10, HistoryBits: 0},
		{Kind: GShare, TableBits: 10, HistoryBits: 11},
		{Kind: Kind(99), TableBits: 10, HistoryBits: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	good := []Config{
		{Kind: Bimodal, TableBits: 12},
		{Kind: GShare, TableBits: 12, HistoryBits: 8},
		{Kind: Tournament, TableBits: 12, HistoryBits: 10},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
}

func TestKindString(t *testing.T) {
	if Bimodal.String() != "bimodal" || GShare.String() != "gshare" ||
		Tournament.String() != "tournament" || Kind(7).String() != "Kind(7)" {
		t.Fatal("Kind.String values wrong")
	}
}

func allKinds(t *testing.T, tableBits, histBits int) []*Predictor {
	t.Helper()
	var ps []*Predictor
	for _, k := range []Kind{Bimodal, GShare, Tournament} {
		p, err := New(Config{Kind: k, TableBits: tableBits, HistoryBits: histBits})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func TestAlwaysTakenLearned(t *testing.T) {
	for _, p := range allKinds(t, 12, 8) {
		for i := 0; i < 1000; i++ {
			p.Predict(0x400, true)
		}
		p.ResetStats()
		for i := 0; i < 1000; i++ {
			p.Predict(0x400, true)
		}
		if mr := p.MispredictRate(); mr > 0.001 {
			t.Errorf("%v: always-taken branch mispredict rate %v, want ~0", p.Config().Kind, mr)
		}
	}
}

func TestAlternatingPatternGShareLearns(t *testing.T) {
	// A strict T/N/T/N pattern defeats bimodal (stuck around 50%) but
	// is perfectly predictable with global history.
	bi, _ := New(Config{Kind: Bimodal, TableBits: 12})
	gs, _ := New(Config{Kind: GShare, TableBits: 12, HistoryBits: 8})
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		bi.Predict(0x1000, taken)
		gs.Predict(0x1000, taken)
	}
	bi.ResetStats()
	gs.ResetStats()
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		bi.Predict(0x1000, taken)
		gs.Predict(0x1000, taken)
	}
	if gs.MispredictRate() > 0.01 {
		t.Fatalf("gshare should learn the alternating pattern, got %v", gs.MispredictRate())
	}
	if bi.MispredictRate() < 0.3 {
		t.Fatalf("bimodal should struggle with alternation, got %v", bi.MispredictRate())
	}
}

func TestRandomBranchesNearHalf(t *testing.T) {
	r := rng.New(77)
	for _, p := range allKinds(t, 12, 10) {
		for i := 0; i < 50000; i++ {
			p.Predict(0x2000, r.Bool(0.5))
		}
		if mr := p.MispredictRate(); mr < 0.4 || mr > 0.6 {
			t.Errorf("%v: random branches mispredict rate %v, want ≈0.5", p.Config().Kind, mr)
		}
	}
}

func TestBiasedRandomBranches(t *testing.T) {
	// 90%-taken random branch: a 2-bit counter mispredicts ≈10%.
	r := rng.New(5)
	p, _ := New(Config{Kind: Bimodal, TableBits: 12})
	for i := 0; i < 50000; i++ {
		p.Predict(0x3000, r.Bool(0.9))
	}
	if mr := p.MispredictRate(); mr < 0.05 || mr > 0.2 {
		t.Fatalf("90%%-biased branch mispredict rate %v, want ≈0.1", mr)
	}
}

func TestTournamentBeatsWorstComponent(t *testing.T) {
	// Mix of an alternating branch (gshare-friendly) and a heavily
	// biased branch (bimodal-friendly): tournament should be close to
	// the best of both.
	tour, _ := New(Config{Kind: Tournament, TableBits: 12, HistoryBits: 8})
	bi, _ := New(Config{Kind: Bimodal, TableBits: 12})
	r := rng.New(8)
	run := func(p *Predictor) {
		for i := 0; i < 20000; i++ {
			p.Predict(0x100, i%2 == 0)     // alternating
			p.Predict(0x200, r.Bool(0.95)) // biased
		}
	}
	run(tour)
	r = rng.New(8)
	run(bi)
	if tour.MispredictRate() >= bi.MispredictRate() {
		t.Fatalf("tournament (%v) should beat bimodal (%v) on mixed workload",
			tour.MispredictRate(), bi.MispredictRate())
	}
}

func TestTakenCounting(t *testing.T) {
	p, _ := New(Config{Kind: Bimodal, TableBits: 8})
	p.Predict(0x10, true)
	p.Predict(0x10, true)
	p.Predict(0x10, false)
	c := p.Counts()
	if c.Branches != 3 || c.Taken != 2 {
		t.Fatalf("counts %+v, want 3 branches / 2 taken", c)
	}
}

func TestResetStatsKeepsLearning(t *testing.T) {
	p, _ := New(Config{Kind: GShare, TableBits: 10, HistoryBits: 6})
	for i := 0; i < 1000; i++ {
		p.Predict(0x40, true)
	}
	p.ResetStats()
	if c := p.Counts(); c != (Counts{}) {
		t.Fatalf("counts after reset %+v", c)
	}
	p.Predict(0x40, true)
	if p.MispredictRate() != 0 {
		t.Fatal("learned state must survive ResetStats")
	}
}

func TestMispredictRateBeforeBranches(t *testing.T) {
	p, _ := New(Config{Kind: Bimodal, TableBits: 8})
	if p.MispredictRate() != 0 {
		t.Fatal("rate before any branch should be 0")
	}
}

func TestBiggerTableHelpsAliasing(t *testing.T) {
	// Many branches with conflicting biases alias in a tiny table but
	// not in a large one.
	smallP, _ := New(Config{Kind: Bimodal, TableBits: 4})
	bigP, _ := New(Config{Kind: Bimodal, TableBits: 16})
	for i := 0; i < 30000; i++ {
		pc := uint64((i % 256) * 4)
		taken := (i % 256) < 128 // low half always-taken, high half never —
		// aliased pairs (b, b+128) disagree, so a 16-entry table thrashes
		smallP.Predict(pc, taken)
		bigP.Predict(pc, taken)
	}
	if bigP.MispredictRate() >= smallP.MispredictRate() {
		t.Fatalf("large table (%v) should out-predict small table (%v) under aliasing",
			bigP.MispredictRate(), smallP.MispredictRate())
	}
}

// TestResetEqualsFresh: after heavy training, Reset leaves every
// predictor kind equal to a freshly built one.
func TestResetEqualsFresh(t *testing.T) {
	used := allKinds(t, 10, 8)
	r := rng.New(5)
	for _, p := range used {
		for i := 0; i < 20_000; i++ {
			p.Predict(r.Uint64n(1<<16)<<2, r.Bool(0.3))
		}
		p.Reset()
	}
	for i, fresh := range allKinds(t, 10, 8) {
		if !reflect.DeepEqual(used[i], fresh) {
			t.Errorf("%v: reset predictor differs from a fresh one", fresh.Config().Kind)
		}
	}
}
