package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/experiments"
)

// Every fidelity a workload can request comes from a fixed pool, so
// digests.json can pin the response body of each one: the outputs of
// every seed are checked, not only those of the shipped seed.
const (
	// exactPoolBase..+exactPoolSize-1 are the exact-cold fidelities,
	// all within 16 instructions of 50 000 so every request costs the
	// same.
	exactPoolBase = 49_984
	exactPoolSize = 32
	// writerPoolBase + writerPoolStep*k, k < writerPoolSize, are the
	// serve-mix writer fidelities (48 000 to 52 092, the band the
	// analytic tolerance contract was fitted at).
	writerPoolBase = 48_000
	writerPoolStep = 4
	writerPoolSize = 512
	// readerFidelity is the one fidelity the serve-mix reader asks for
	// (analytic tier); its results are computed in setup.
	readerFidelity = 20_000
	// warmFidelity is the analysis-warm store's fidelity.
	warmFidelity = 5_000
)

// readerIDs is the serve-mix reader's fixed experiment set: cheap
// analyses whose bodies range from a few KB to tens of KB. Hit latency
// grows with body size, so each id's hits form a cluster; with an odd
// number of ids requested equally often, the median falls inside the
// middle cluster rather than on the edge between two.
var readerIDs = []string{"table1", "table2", "fig1", "fig9", "table8"}

// fillIDs are the experiments whose leaves the analysis-warm store
// holds: table2 builds the shared characterization, the other four
// measure extra leaves (other machines, replicas, multi-copy runs).
var fillIDs = []string{"table2", "table9", "table9-extended", "noise", "rate-scaling"}

// rng returns the generator for one stream of one seed. Streams keep
// the sequences independent: changing how many reader ops a run makes
// never shifts the writer's fidelities.
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// exactColdOps returns the exact-cold fidelities for seed, in request
// order: a seeded permutation of the pool, so no two requests of a run
// share a fidelity. The first is the discarded warm-up op.
func exactColdOps(seed int64) []int {
	perm := rng(seed, 1).Perm(exactPoolSize)
	out := make([]int, len(perm))
	for i, k := range perm {
		out[i] = exactPoolBase + k
	}
	return out
}

// writerOps returns the serve-mix writer fidelities for seed, in
// request order (first = warm-up op), all distinct.
func writerOps(seed int64) []int {
	perm := rng(seed, 2).Perm(writerPoolSize)
	out := make([]int, len(perm))
	for i, k := range perm {
		out[i] = writerPoolBase + writerPoolStep*k
	}
	return out
}

// readerOps returns the serve-mix reader's ids for seed, in request
// order: each of readerIDs ceil(n/len(readerIDs)) times.
func readerOps(seed int64, n int) []string {
	return balanced(rng(seed, 3), readerIDs, n)
}

// hitProbeSeq returns the hit probe's paths for seed, in request
// order: each of paths ceil(n/len(paths)) times, so every seed times
// the same mix.
func hitProbeSeq(seed int64, paths []string, n int) []string {
	ps := slices.Clone(paths)
	slices.Sort(ps) // callers pass map keys
	return balanced(rng(seed, 5), ps, n)
}

// balanced returns each of items ceil(n/len(items)) times, shuffled
// by r.
func balanced(r *rand.Rand, items []string, n int) []string {
	if len(items) == 0 {
		return nil
	}
	each := (n + len(items) - 1) / len(items)
	out := make([]string, 0, each*len(items))
	for _, it := range items {
		for i := 0; i < each; i++ {
			out = append(out, it)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// analysisOrder returns the order in which pass p of analysis-warm
// requests the 29 registry experiments.
func analysisOrder(seed int64, pass int) []string {
	ids := experiments.IDs()
	r := rng(seed, 100+int64(pass))
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// experimentPath is the request path of one experiment.
func experimentPath(id string, instructions int, analytic bool) string {
	p := fmt.Sprintf("/v1/experiments/%s?instructions=%d", id, instructions)
	if analytic {
		p += "&engine=analytic"
	}
	return p
}
