package tlb

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Entries: 0, Ways: 1},
		{Entries: 64, Ways: 0},
		{Entries: 64, Ways: 5},    // not divisible
		{Entries: 96, Ways: 8},    // 12 sets, not pow2
		{Entries: 512, Ways: 512}, // more ways than the cache simulator supports
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
		if err := (HierarchyConfig{ITLB: Config{Entries: 8, Ways: 8}, DTLB: c}).Validate(); err == nil {
			t.Errorf("hierarchy with DTLB %+v should be invalid", c)
		}
	}
	if err := (Config{Entries: 64, Ways: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestLookupSamePage(t *testing.T) {
	tl, err := New(Config{Entries: 16, Ways: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Lookup(0x1000) {
		t.Fatal("first page touch must miss")
	}
	if !tl.Lookup(0x1ABC) {
		t.Fatal("same-page access must hit")
	}
	if tl.Lookup(0x2000) {
		t.Fatal("next page must miss")
	}
	lookups, misses := tl.Stats()
	if lookups != 3 || misses != 2 {
		t.Fatalf("stats %d/%d, want 3/2", lookups, misses)
	}
}

func TestCapacityEviction(t *testing.T) {
	tl, _ := New(Config{Entries: 4, Ways: 4})
	// Touch 5 distinct pages; the first must be evicted (LRU).
	for p := uint64(0); p < 5; p++ {
		tl.Lookup(p << PageShift)
	}
	if tl.Lookup(0) {
		t.Fatal("page 0 should have been evicted")
	}
	if !tl.Lookup(4 << PageShift) {
		t.Fatal("page 4 should still be resident")
	}
}

func newHier(t *testing.T, withL2 bool) *Hierarchy {
	t.Helper()
	cfg := HierarchyConfig{
		ITLB: Config{Entries: 8, Ways: 8},
		DTLB: Config{Entries: 8, Ways: 8},
	}
	if withL2 {
		cfg.L2 = &Config{Entries: 64, Ways: 8}
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := newHier(t, true)
	if lvl := h.TranslateData(0x5000); lvl != 2 {
		t.Fatalf("cold translation level %d, want 2 (walk)", lvl)
	}
	if lvl := h.TranslateData(0x5000); lvl != 0 {
		t.Fatalf("warm translation level %d, want 0", lvl)
	}
	c := h.Counts()
	if c.PageWalks != 1 || c.L2Misses != 1 || c.DTLBMisses != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestHierarchyL2Catch(t *testing.T) {
	h := newHier(t, true)
	// Touch 32 pages: beyond L1 DTLB (8) but within L2 (64).
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 32; p++ {
			h.TranslateData(p << PageShift)
		}
	}
	h.ResetStats()
	for p := uint64(0); p < 32; p++ {
		h.TranslateData(p << PageShift)
	}
	c := h.Counts()
	if c.PageWalks != 0 {
		t.Fatalf("all pages fit in L2 TLB, got %d walks", c.PageWalks)
	}
	if c.DTLBMisses == 0 {
		t.Fatal("32 pages exceed the 8-entry DTLB, expected misses")
	}
}

func TestHierarchyNoL2(t *testing.T) {
	h := newHier(t, false)
	if lvl := h.TranslateInstr(0x9000); lvl != 2 {
		t.Fatalf("without L2, L1 miss must walk, got %d", lvl)
	}
	if c := h.Counts(); c.L2Lookups != 0 || c.PageWalks != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestInstrDataSplit(t *testing.T) {
	h := newHier(t, true)
	h.TranslateInstr(0x1000)
	h.TranslateData(0x2000)
	c := h.Counts()
	if c.ITLBLookups != 1 || c.DTLBLookups != 1 {
		t.Fatalf("split accounting wrong: %+v", c)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := newHier(t, true)
	h.TranslateData(0xABC000)
	h.ResetStats()
	if c := h.Counts(); c != (Counts{}) {
		t.Fatalf("counts after reset: %+v", c)
	}
	if lvl := h.TranslateData(0xABC000); lvl != 0 {
		t.Fatal("contents must survive ResetStats")
	}
}

func TestRandomPagesMissMore(t *testing.T) {
	local := newHier(t, true)
	random := newHier(t, true)
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		local.TranslateData(uint64(r.Intn(8)) << PageShift)       // 8 pages: fits L1
		random.TranslateData(uint64(r.Intn(100000)) << PageShift) // 100k pages
	}
	lc, rc := local.Counts(), random.Counts()
	if lc.PageWalks*100 >= rc.PageWalks {
		t.Fatalf("random pages should walk far more: local %d vs random %d", lc.PageWalks, rc.PageWalks)
	}
}

// TestResetEqualsFresh: after heavy use, Reset leaves a hierarchy
// (with and without an L2 TLB) equal to a freshly built one.
func TestResetEqualsFresh(t *testing.T) {
	for _, withL2 := range []bool{false, true} {
		h := newHier(t, withL2)
		r := rng.New(3)
		for i := 0; i < 20_000; i++ {
			addr := r.Uint64n(1 << 30)
			if i%4 == 0 {
				h.TranslateInstr(addr)
			} else {
				h.TranslateData(addr)
			}
		}
		h.Reset()
		if fresh := newHier(t, withL2); !reflect.DeepEqual(h, fresh) {
			t.Errorf("withL2=%v: reset hierarchy differs from a fresh one", withL2)
		}
	}
}
