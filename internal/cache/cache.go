// Package cache implements a trace-driven, set-associative cache
// simulator with true-LRU replacement, plus a composable multi-level
// hierarchy with split instruction/data accounting. It is the
// measurement substrate that replaces the paper's hardware cache
// performance counters (L1I/L1D/L2/L3 MPKI, Table II and Table III).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity. Must be a positive multiple of
	// LineBytes*Ways.
	SizeBytes int
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// LineBytes is the block size; must be a power of two.
	LineBytes int
}

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.Ways > 255 {
		return fmt.Errorf("cache: associativity %d exceeds supported maximum 255", c.Ways)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// invalidTag marks an empty way. Real tags are line addresses shifted
// down by the set-index width, so a tag of all-ones would require an
// address beyond 2^63 — unreachable in the generated address space.
const invalidTag = ^uint64(0)

// Cache is a single simulated cache level. Create with New.
//
// Each set is one contiguous block of `ways` tag words kept in
// recency order (most recent first), with invalidTag in empty slots.
// This fuses what were three parallel arrays (tags, valid bits, LRU
// state) into a single cache-line-friendly block: one simulated
// access touches one run of memory, which is what keeps the simulator
// fast when the simulated geometry (an 8 MB L3's megabyte of tags) is
// far bigger than the host's own caches.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	setShift  uint
	setMask   uint64
	lines     []uint64 // sets × ways, recency-ordered tags
	accesses  uint64
	misses    uint64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		lines:     make([]uint64, sets*cfg.Ways),
	}
	c.Reset()
	return c, nil
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates a reference to addr and reports whether it hit.
// Misses allocate (write-allocate for stores, fetch for loads).
//
// The set is scanned in recency order, so a hit costs one probe in
// the common MRU case, and re-ordering is a short in-block slide.
// Which physical way a line occupies is unobservable; hit/miss
// outcomes and eviction choices are exact LRU, identical to the
// age-permutation implementation this replaced (empty slots sink to
// the tail and are filled before any valid line is evicted).
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.setShift
	ways := c.cfg.Ways
	base := set * ways
	c.accesses++

	s := c.lines[base : base+ways : base+ways]
	if s[0] == tag {
		return true // MRU fast path: no re-ordering needed
	}
	for p := 1; p < ways; p++ {
		if s[p] == tag {
			// Promote to MRU: slide the more-recent entries down one.
			copy(s[1:p+1], s[:p])
			s[0] = tag
			return true
		}
	}

	c.misses++
	// Fill at MRU, dropping the LRU tail (an empty slot while the set
	// is still filling).
	copy(s[1:], s[:ways-1])
	s[0] = tag
	return false
}

// Stats returns accesses and misses since creation or the last Reset.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// ResetStats clears the counters but keeps cache contents, so warmup
// references can be excluded from measurement.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// Reset empties every way and clears the counters, leaving the cache
// equal to a freshly built one of the same geometry without
// reallocating its tag array.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = invalidTag
	}
	c.ResetStats()
}

// Hierarchy models the three-level structure shared by the machines in
// Table IV: split L1 I/D, a unified (or split-per-core, modelled as
// unified) L2, and an optional unified L3. Instruction and data misses
// are accounted separately at L2 so the paper's L2I$/L2D$ MPKI metrics
// can be reported.
type Hierarchy struct {
	L1I, L1D *Cache
	L2       *Cache
	L3       *Cache // nil when the machine has no L3 (e.g. Xeon E5405)

	l2IAccesses, l2IMisses uint64
	l2DAccesses, l2DMisses uint64
	l3Accesses, l3Misses   uint64
}

// HierarchyConfig assembles a Hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	L3           *Config
}

// Validate checks every level's geometry, naming the level that fails.
func (cfg HierarchyConfig) Validate() error {
	if err := cfg.L1I.Validate(); err != nil {
		return fmt.Errorf("L1I: %w", err)
	}
	if err := cfg.L1D.Validate(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if cfg.L3 != nil {
		if err := cfg.L3.Validate(); err != nil {
			return fmt.Errorf("L3: %w", err)
		}
	}
	return nil
}

// NewHierarchy builds the hierarchy, validating every level.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	h := &Hierarchy{L1I: l1i, L1D: l1d, L2: l2}
	if cfg.L3 != nil {
		l3, err := New(*cfg.L3)
		if err != nil {
			return nil, fmt.Errorf("L3: %w", err)
		}
		h.L3 = l3
	}
	return h, nil
}

// FetchInstr simulates an instruction fetch of addr through the
// hierarchy and returns the deepest level that missed
// (0 = L1 hit, 1 = L1 miss/L2 hit, 2 = L2 miss/L3 hit, 3 = memory).
func (h *Hierarchy) FetchInstr(addr uint64) int {
	if h.L1I.Access(addr) {
		return 0
	}
	h.l2IAccesses++
	if h.L2.Access(addr) {
		return 1
	}
	h.l2IMisses++
	return h.accessL3(addr)
}

// AccessData simulates a load or store of addr and returns the deepest
// level that missed, with the same encoding as FetchInstr.
func (h *Hierarchy) AccessData(addr uint64) int {
	if h.L1D.Access(addr) {
		return 0
	}
	h.l2DAccesses++
	if h.L2.Access(addr) {
		return 1
	}
	h.l2DMisses++
	return h.accessL3(addr)
}

func (h *Hierarchy) accessL3(addr uint64) int {
	if h.L3 == nil {
		return 3
	}
	h.l3Accesses++
	if h.L3.Access(addr) {
		return 2
	}
	h.l3Misses++
	return 3
}

// Counts aggregates the hierarchy's miss statistics.
type Counts struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2IAccesses, L2IMisses uint64
	L2DAccesses, L2DMisses uint64
	L3Accesses, L3Misses   uint64
}

// Counts returns a snapshot of all levels' counters.
func (h *Hierarchy) Counts() Counts {
	c := Counts{
		L2IAccesses: h.l2IAccesses, L2IMisses: h.l2IMisses,
		L2DAccesses: h.l2DAccesses, L2DMisses: h.l2DMisses,
		L3Accesses: h.l3Accesses, L3Misses: h.l3Misses,
	}
	c.L1IAccesses, c.L1IMisses = h.L1I.Stats()
	c.L1DAccesses, c.L1DMisses = h.L1D.Stats()
	return c
}

// Reset empties every level (including an attached L3) and clears all
// counters, leaving the hierarchy equal to a freshly built one.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	if h.L3 != nil {
		h.L3.Reset()
	}
	h.ResetStats()
}

// ResetStats clears counters on all levels, keeping contents warm.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	if h.L3 != nil {
		h.L3.ResetStats()
	}
	h.l2IAccesses, h.l2IMisses = 0, 0
	h.l2DAccesses, h.l2DMisses = 0, 0
	h.l3Accesses, h.l3Misses = 0, 0
}
