package machine

import (
	"fmt"

	"repro/internal/trace"
)

// MultiCounts is the result of a multi-copy (SPECrate-style) run:
// n identical copies of one benchmark share the last-level cache and
// memory while keeping private L1/L2 caches, TLBs, and predictors —
// the paper measures single copies (Section IV-D) and this extension
// models the contention the real SPECrate harness creates.
type MultiCounts struct {
	// Copies is the number of concurrent instances.
	Copies int
	// PerCopy holds each copy's raw counts.
	PerCopy []*RawCounts
	// Throughput is the aggregate instructions per cycle
	// (sum over copies of 1/CPI_i).
	Throughput float64
}

// ScalingEfficiency returns the throughput relative to perfect linear
// scaling from the given single-copy throughput: 1 means no
// interference, lower values mean shared-resource contention.
func (mc *MultiCounts) ScalingEfficiency(singleThroughput float64) float64 {
	if singleThroughput <= 0 || mc.Copies == 0 {
		return 0
	}
	return mc.Throughput / (singleThroughput * float64(mc.Copies))
}

// copyStride separates the copies' data address spaces: each copy's
// data lives in its own 64 GiB window, as separate rate processes do.
// Code is shared (the OS maps one text segment for all copies).
const copyStride uint64 = 1 << 36

// RunMulti measures copies concurrent instances of the workload,
// interleaved instruction by instruction, with a shared L3. With
// copies == 1 it degenerates to Run up to trace-seed differences.
func (m *Machine) RunMulti(w Workload, copies int, opts RunOptions) (*MultiCounts, error) {
	if copies < 1 {
		return nil, fmt.Errorf("machine: copies %d", copies)
	}
	if w.ILP <= 0 {
		return nil, fmt.Errorf("machine: workload %q has non-positive ILP", w.Key)
	}
	opts = opts.withDefaults()
	spec := m.adjustSpec(w)

	gens := make([]*trace.Generator, copies)
	for i := range gens {
		gen, err := trace.NewGenerator(spec, fmt.Sprintf("%s#copy%d@%s", w.Key, i, m.cfg.Name))
		if err != nil {
			return nil, err
		}
		gens[i] = gen
	}

	// Private L1/L2, TLBs and predictor per copy; every copy's
	// hierarchy ends in the same L3 (when the machine has one).
	out := &MultiCounts{Copies: copies}
	err := m.withLeaves(copies, func(leaves []*leafState) error {
		counts := make([]RawCounts, copies)
		streams := make([]*simStream, copies)
		for i, ls := range leaves {
			streams[i] = newSimStream(gens[i], ls, &counts[i], uint64(i)*copyStride)
			primeOffset(ls.caches, ls.tlbs, spec, streams[i].offset)
		}

		// Round-robin interleaving through the shared kernel: warmup,
		// then measurement. Each stream's resetStats also clears the
		// shared L3's counters.
		runInterleaved(streams, opts.WarmupInstructions, false)
		for _, st := range streams {
			st.resetStats()
		}
		runInterleaved(streams, opts.Instructions, true)

		for _, st := range streams {
			if err := st.finalize(m.cfg.IssueWidth, w.ILP, m.cfg.Penalties); err != nil {
				return err
			}
			out.PerCopy = append(out.PerCopy, st.rc)
			out.Throughput += 1 / st.rc.CPI
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
