// Package tlb implements a trace-driven two-level TLB simulator:
// split L1 instruction/data TLBs backed by an optional unified L2 TLB,
// with page-walk counting. It provides the paper's TLB metrics
// (L1 I/D TLB MPMI, last-level TLB MPMI, page walks per million
// instructions; Table III).
package tlb

import (
	"fmt"

	"repro/internal/cache"
)

// PageShift is log2 of the simulated page size (4 KiB pages, the
// baseline configuration on every machine in Table IV).
const PageShift = 12

// Config describes one TLB level.
type Config struct {
	// Entries is the number of page translations held.
	Entries int
	// Ways is the associativity; Ways == Entries gives a fully
	// associative TLB (common for small L1 TLBs).
	Ways int
}

// Validate reports an error for impossible geometries.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("tlb: non-positive geometry %+v", c)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: entries %d not divisible by ways %d", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d not a power of two", sets)
	}
	// The cache simulator underneath has its own limits (at most 255
	// ways), so a geometry valid above can still be unbuildable.
	if err := c.cacheConfig().Validate(); err != nil {
		return fmt.Errorf("tlb: %w", err)
	}
	return nil
}

// cacheConfig is the cache geometry a TLB level is simulated as: one
// page-sized line per entry.
func (c Config) cacheConfig() cache.Config {
	return cache.Config{
		SizeBytes: c.Entries << PageShift,
		Ways:      c.Ways,
		LineBytes: 1 << PageShift,
	}
}

// TLB is a single translation buffer level. A TLB over page numbers is
// structurally a cache over page-granule "lines", so it reuses the
// cache simulator with a line size of one page.
type TLB struct {
	c *cache.Cache
}

// New builds a TLB level from cfg.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := cache.New(cfg.cacheConfig())
	if err != nil {
		return nil, fmt.Errorf("tlb: %w", err)
	}
	return &TLB{c: inner}, nil
}

// Lookup translates the page containing addr, reporting a hit or miss.
func (t *TLB) Lookup(addr uint64) bool { return t.c.Access(addr) }

// Stats returns lookups and misses.
func (t *TLB) Stats() (lookups, misses uint64) { return t.c.Stats() }

// ResetStats clears counters, keeping contents.
func (t *TLB) ResetStats() { t.c.ResetStats() }

// Reset empties the TLB and clears its counters, leaving it equal to a
// freshly built one.
func (t *TLB) Reset() { t.c.Reset() }

// Hierarchy is the two-level structure used by all simulated machines:
// split L1 I/D TLBs and an optional unified second level. A miss in
// both levels costs a page walk.
type Hierarchy struct {
	ITLB, DTLB *TLB
	L2         *TLB // nil = single-level TLB (older machines)

	l2Lookups, l2Misses uint64
	pageWalks           uint64
}

// HierarchyConfig assembles a TLB hierarchy.
type HierarchyConfig struct {
	ITLB, DTLB Config
	L2         *Config
}

// Validate checks every level's geometry, naming the level that fails.
func (cfg HierarchyConfig) Validate() error {
	if err := cfg.ITLB.Validate(); err != nil {
		return fmt.Errorf("ITLB: %w", err)
	}
	if err := cfg.DTLB.Validate(); err != nil {
		return fmt.Errorf("DTLB: %w", err)
	}
	if cfg.L2 != nil {
		if err := cfg.L2.Validate(); err != nil {
			return fmt.Errorf("L2 TLB: %w", err)
		}
	}
	return nil
}

// NewHierarchy builds and validates the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	itlb, err := New(cfg.ITLB)
	if err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	dtlb, err := New(cfg.DTLB)
	if err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	h := &Hierarchy{ITLB: itlb, DTLB: dtlb}
	if cfg.L2 != nil {
		l2, err := New(*cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("L2 TLB: %w", err)
		}
		h.L2 = l2
	}
	return h, nil
}

// TranslateInstr translates an instruction fetch address. The return
// value is 0 for an L1 hit, 1 for an L2 hit, 2 for a page walk.
func (h *Hierarchy) TranslateInstr(addr uint64) int {
	if h.ITLB.Lookup(addr) {
		return 0
	}
	return h.secondLevel(addr)
}

// TranslateData translates a load/store address, same encoding.
func (h *Hierarchy) TranslateData(addr uint64) int {
	if h.DTLB.Lookup(addr) {
		return 0
	}
	return h.secondLevel(addr)
}

func (h *Hierarchy) secondLevel(addr uint64) int {
	if h.L2 == nil {
		h.pageWalks++
		return 2
	}
	h.l2Lookups++
	if h.L2.Lookup(addr) {
		return 1
	}
	h.l2Misses++
	h.pageWalks++
	return 2
}

// Counts aggregates the hierarchy's statistics.
type Counts struct {
	ITLBLookups, ITLBMisses uint64
	DTLBLookups, DTLBMisses uint64
	L2Lookups, L2Misses     uint64
	PageWalks               uint64
}

// Counts returns a snapshot of all counters.
func (h *Hierarchy) Counts() Counts {
	c := Counts{L2Lookups: h.l2Lookups, L2Misses: h.l2Misses, PageWalks: h.pageWalks}
	c.ITLBLookups, c.ITLBMisses = h.ITLB.Stats()
	c.DTLBLookups, c.DTLBMisses = h.DTLB.Stats()
	return c
}

// Reset empties every level and clears all counters, leaving the
// hierarchy equal to a freshly built one.
func (h *Hierarchy) Reset() {
	h.ITLB.Reset()
	h.DTLB.Reset()
	if h.L2 != nil {
		h.L2.Reset()
	}
	h.ResetStats()
}

// ResetStats clears all counters, keeping contents warm.
func (h *Hierarchy) ResetStats() {
	h.ITLB.ResetStats()
	h.DTLB.ResetStats()
	if h.L2 != nil {
		h.L2.ResetStats()
	}
	h.l2Lookups, h.l2Misses, h.pageWalks = 0, 0, 0
}
