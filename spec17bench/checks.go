package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/store"
)

// digestsPath holds the committed response digests, relative to the
// repository root the benchmark runs from.
const digestsPath = "spec17bench/digests.json"

// goldenPath is the exact engine's committed golden fixture. The
// benchmark only reads it.
const goldenPath = "internal/machine/testdata/golden_counts.json"

// digest is the first 64 bits of a body's SHA-256, in hex.
func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// digests maps a request path (plus "#hit" for a result-cache hit) to
// the digest of its response body.
type digests map[string]string

func loadDigests() (digests, error) {
	data, err := os.ReadFile(digestsPath)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var d digests
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", digestsPath, err)
	}
	return d, nil
}

// check reports whether body is the committed body for key.
func (d digests) check(key string, body []byte) error {
	want, ok := d[key]
	if !ok {
		return fmt.Errorf("no committed digest for %s", key)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("%s: body digest %s, committed %s", key, got, want)
	}
	return nil
}

// save writes the digests, one sorted entry per line so diffs of the
// committed file stay readable.
func (d digests) save() error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.FromSlash(digestsPath), append(data, '\n'), 0o644)
}

// goldenCase mirrors one entry of the golden fixture.
type goldenCase struct {
	Machine  string               `json:"machine"`
	Workload machine.Workload     `json:"workload"`
	Opts     machine.RunOptions   `json:"opts"`
	Copies   int                  `json:"copies"`
	Counts   *machine.RawCounts   `json:"counts"`
	Multi    *machine.MultiCounts `json:"multi"`
}

// loadGolden reads the golden fixture.
func loadGolden() ([]goldenCase, error) {
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		return nil, fmt.Errorf("reading golden fixture: %w", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		return nil, fmt.Errorf("decoding golden fixture: %w", err)
	}
	return cases, nil
}

// checkGolden re-measures every golden case (single-copy cases through
// engine.Exact, multi-copy ones through machine.RunMulti) and returns
// the instructions simulated (measured + warmup, over every copy), or
// an error naming the first case that is not bit-identical to the
// fixture.
func checkGolden(fleet map[string]*machine.Machine, cases []goldenCase) (float64, error) {
	var instr float64
	for _, c := range cases {
		m, ok := fleet[c.Machine]
		if !ok {
			return 0, fmt.Errorf("golden case names unknown machine %q", c.Machine)
		}
		name := c.Machine + "/" + c.Workload.Key
		canon := c.Opts.Canonical()
		if c.Copies > 0 {
			got, err := m.RunMulti(c.Workload, c.Copies, c.Opts)
			if err != nil {
				return 0, fmt.Errorf("golden %s: %w", name, err)
			}
			if c.Multi == nil || got.Copies != c.Multi.Copies || got.Throughput != c.Multi.Throughput ||
				len(got.PerCopy) != len(c.Multi.PerCopy) {
				return 0, fmt.Errorf("golden %s x%d: multi-copy counts differ", name, c.Copies)
			}
			for i := range got.PerCopy {
				if *got.PerCopy[i] != *c.Multi.PerCopy[i] {
					return 0, fmt.Errorf("golden %s copy %d: counts differ", name, i)
				}
			}
			instr += float64(c.Copies * (canon.Instructions + canon.WarmupInstructions))
			continue
		}
		got, err := engine.Exact{}.Measure(context.Background(), m, c.Workload, c.Opts)
		if err != nil {
			return 0, fmt.Errorf("golden %s: %w", name, err)
		}
		if c.Counts == nil || *got != *c.Counts {
			return 0, fmt.Errorf("golden %s: counts differ from the fixture", name)
		}
		instr += float64(canon.Instructions + canon.WarmupInstructions)
	}
	return instr, nil
}

// bandMax measures, with the other engine, one store record of the
// given tier per distinct (machine, workload) leaf, at a fidelity the
// seed picks among those the workload stored, and returns the worst
// engine.Tolerances band ratio between the analytic and exact counts
// over every metric and CPI. On serve-mix the records are the writer's
// analytic ones, re-measured with engine.Exact; on exact-cold and
// analysis-warm they are exact ones, estimated again with
// engine.Analytic. Multi-copy records and leaves outside the
// characterization (other machines, replicas) are skipped. A ratio
// above 1 breaks the committed accuracy contract.
func bandMax(st *store.Store, fleet map[string]*machine.Machine, fidelities map[int]bool, tier engine.Tier, seed int64) (float64, error) {
	workloads := make(map[string]machine.Workload)
	for _, e := range experiments.Entries() {
		workloads[e.Workload.Key] = e.Workload
	}
	want := string(tier)
	var other engine.Engine = engine.Exact{}
	if tier == engine.TierExact {
		want, other = "", engine.Analytic{} // exact records carry Engine ""
	}
	type rec struct {
		key store.Key
		rc  *machine.RawCounts
	}
	byLeaf := make(map[string][]rec)
	st.Range(func(k store.Key, rc *machine.RawCounts) bool {
		_, known := workloads[k.Workload]
		if k.Engine == want && k.Copies == 0 && fidelities[k.Instructions] && known && fleet[k.Machine] != nil {
			leaf := k.Machine + "|" + k.Workload
			byLeaf[leaf] = append(byLeaf[leaf], rec{k, rc})
		}
		return true
	})
	if len(byLeaf) == 0 {
		return 0, fmt.Errorf("no %s records of the workload's fidelities in the store", tier)
	}
	// Range order is unspecified; sort before drawing so the sample
	// depends on the seed alone.
	leaves := make([]string, 0, len(byLeaf))
	for l := range byLeaf {
		leaves = append(leaves, l)
	}
	sort.Strings(leaves)
	r := rng(seed, 4)
	worst := 0.0
	for _, l := range leaves {
		recs := byLeaf[l]
		sort.Slice(recs, func(i, j int) bool { return recs[i].key.Instructions < recs[j].key.Instructions })
		pick := recs[r.Intn(len(recs))]
		k, m := pick.key, fleet[pick.key.Machine]
		remeasured, err := other.Measure(context.Background(), m, workloads[k.Workload],
			machine.RunOptions{Instructions: k.Instructions, WarmupInstructions: k.Warmup})
		if err != nil {
			return 0, err
		}
		analytic, exact := pick.rc, remeasured
		if tier == engine.TierExact {
			analytic, exact = remeasured, pick.rc
		}
		hp := m.Config().HasRAPL
		as, err := counters.FromRaw(m.Name(), hp, analytic)
		if err != nil {
			return 0, err
		}
		xs, err := counters.FromRaw(m.Name(), hp, exact)
		if err != nil {
			return 0, err
		}
		for _, metric := range as.Metrics() {
			if band, ok := engine.Tolerances[metric]; ok {
				worst = max(worst, band.Ratio(as.MustValue(metric), xs.MustValue(metric)))
			}
		}
		worst = max(worst, engine.Tolerances[engine.MetricCPI].Ratio(analytic.CPI, exact.CPI))
	}
	return worst, nil
}

// fleetByName returns the Table IV fleet keyed by machine name.
func fleetByName() (map[string]*machine.Machine, []*machine.Machine, error) {
	fleet, err := machine.Fleet()
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]*machine.Machine, len(fleet))
	for _, m := range fleet {
		out[m.Name()] = m
	}
	return out, fleet, nil
}
