package machine

import (
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Leaf-state lifecycle. An exact leaf (one Run, or one copy of a
// RunMulti) needs a cache hierarchy, a TLB hierarchy, a branch
// predictor and an event slab. The modelled LLC tag arrays alone are
// 0.5–4 MB, so building them per leaf made allocation, page clearing
// and GC a large share of a characterization. Each Machine instead
// keeps finished leaf state in a sync.Pool: acquire takes an entry (or
// builds one when the pool is empty) and resets it in place, and every
// component's Reset leaves it equal to a freshly built one, so a
// result never depends on which leaf used the state before. A
// sync.Pool drops idle entries across garbage collections, so pooled
// state does not outlive the work that needs it.

// leafState is one simulation stream's reusable state.
type leafState struct {
	caches *cache.Hierarchy
	// ownL3 is the hierarchy's own last-level cache (nil on machines
	// without one). Later copies of a multi-copy run attach the first
	// copy's L3 instead; acquire re-attaches ownL3 on the next use.
	ownL3 *cache.Cache
	tlbs  *tlb.Hierarchy
	pred  *branch.Predictor
	slab  []trace.Event
}

// newLeafState builds fresh leaf state from the machine's config.
func (m *Machine) newLeafState() (*leafState, error) {
	caches, err := cache.NewHierarchy(m.cfg.Caches)
	if err != nil {
		return nil, err
	}
	tlbs, err := tlb.NewHierarchy(m.cfg.TLBs)
	if err != nil {
		return nil, err
	}
	pred, err := branch.New(m.cfg.Predictor)
	if err != nil {
		return nil, err
	}
	return &leafState{
		caches: caches, ownL3: caches.L3, tlbs: tlbs, pred: pred,
		slab: make([]trace.Event, simSlabSize),
	}, nil
}

// acquire returns leaf state equal to freshly built state. A nil
// sharedL3 gives the hierarchy its own L3; otherwise sharedL3 is
// attached in its place and left as it is (the copy that owns it reset
// it when acquiring).
func (m *Machine) acquire(sharedL3 *cache.Cache) (*leafState, error) {
	ls, reused := m.leaves.Get().(*leafState)
	if !reused {
		var err error
		if ls, err = m.newLeafState(); err != nil {
			return nil, err
		}
	}
	ls.caches.L3 = ls.ownL3
	if sharedL3 != nil {
		ls.caches.L3 = nil // the idle own L3 is reset when next attached
	}
	if reused {
		ls.caches.Reset()
		ls.tlbs.Reset()
		ls.pred.Reset()
	}
	if sharedL3 != nil {
		ls.caches.L3 = sharedL3
	}
	return ls, nil
}

// withLeaves is the one path by which simulations get leaf state: it
// acquires n leaf states — the first with its own L3, the rest sharing
// it, as the copies of a multi-copy run share the LLC — runs fn on
// them and returns them to the pool.
func (m *Machine) withLeaves(n int, fn func([]*leafState) error) error {
	leaves := make([]*leafState, 0, n)
	defer func() {
		for _, ls := range leaves {
			m.leaves.Put(ls)
		}
	}()
	var shared *cache.Cache
	for i := 0; i < n; i++ {
		ls, err := m.acquire(shared)
		if err != nil {
			return err
		}
		leaves = append(leaves, ls)
		shared = leaves[0].caches.L3
	}
	return fn(leaves)
}
