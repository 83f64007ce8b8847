package machine_test

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// Reuse safety: every run draws pooled leaf state that an earlier run
// dirtied, so the result of a run must not depend on what ran before
// it on the same Machine, or on what runs beside it.

// goldenCase mirrors one entry of testdata/golden_counts.json.
type goldenCase struct {
	Machine  string               `json:"machine"`
	Workload machine.Workload     `json:"workload"`
	Opts     machine.RunOptions   `json:"opts"`
	Copies   int                  `json:"copies,omitempty"`
	Counts   *machine.RawCounts   `json:"counts,omitempty"`
	Multi    *machine.MultiCounts `json:"multi,omitempty"`
}

func loadGolden(t *testing.T) []goldenCase {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden fixture")
	}
	return cases
}

// checkGolden runs c on m and compares it with the fixture bit for bit.
func checkGolden(t *testing.T, m *machine.Machine, c goldenCase, when string) {
	t.Helper()
	name := fmt.Sprintf("%s/%s (%s)", c.Machine, c.Workload.Key, when)
	if c.Copies > 0 {
		mc, err := m.RunMulti(c.Workload, c.Copies, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if mc.Throughput != c.Multi.Throughput || len(mc.PerCopy) != len(c.Multi.PerCopy) {
			t.Fatalf("%s x%d: throughput %v over %d copies, want %v over %d",
				name, c.Copies, mc.Throughput, len(mc.PerCopy), c.Multi.Throughput, len(c.Multi.PerCopy))
		}
		for i := range mc.PerCopy {
			if *mc.PerCopy[i] != *c.Multi.PerCopy[i] {
				t.Errorf("%s copy %d differs from golden", name, i)
			}
		}
		return
	}
	rc, err := m.Run(c.Workload, c.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if *rc != *c.Counts {
		t.Errorf("%s differs from golden:\n got %+v\nwant %+v", name, *rc, *c.Counts)
	}
}

// largestFootprint returns the registry workload with the largest data
// footprint: it primes every LLC full and leaves the most state behind.
func largestFootprint() machine.Workload {
	all := workloads.All()
	big := slices.MaxFunc(all, func(a, b workloads.Profile) int {
		return int(a.Spec.FootprintBytes>>20) - int(b.Spec.FootprintBytes>>20)
	})
	return big.Workload()
}

// TestGoldenCountsOnReusedFleet runs the golden cases on one shared
// fleet forward, reversed, each twice in a row, and each right after
// the largest-footprint registry workload (single and multi-copy) on
// its machine. Every result must equal the committed fixture.
func TestGoldenCountsOnReusedFleet(t *testing.T) {
	cases := loadGolden(t)
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*machine.Machine, len(fleet))
	for _, m := range fleet {
		byName[m.Name()] = m
	}
	on := func(c goldenCase) *machine.Machine {
		m, ok := byName[c.Machine]
		if !ok {
			t.Fatalf("unknown golden machine %q", c.Machine)
		}
		return m
	}

	for _, c := range cases {
		checkGolden(t, on(c), c, "forward")
	}
	for i := len(cases) - 1; i >= 0; i-- {
		checkGolden(t, on(cases[i]), cases[i], "reversed")
	}
	for _, c := range cases {
		checkGolden(t, on(c), c, "first of two")
		checkGolden(t, on(c), c, "second of two")
	}
	big := largestFootprint()
	opts := machine.RunOptions{Instructions: 20_000}
	for _, c := range cases {
		m := on(c)
		if _, err := m.RunMulti(big, 3, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(big, opts); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, m, c, "after "+big.Key)
	}
}

// TestConcurrentRunsOnOneMachine runs four goroutines on one Machine
// at once, each a different mix of single and multi-copy runs; every
// result must equal the same run on a machine nobody else touches. Run
// it under -race to check the pooled state is never shared.
func TestConcurrentRunsOnOneMachine(t *testing.T) {
	cfg := machine.SkylakeConfig()
	shared, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := workloads.All()
	opts := machine.RunOptions{Instructions: 4_000}
	type run struct {
		w      machine.Workload
		copies int // 0 = Run
	}
	plans := make([][]run, 4)
	for g := range plans {
		for i := 0; i < 4; i++ {
			p := all[(g*7+i*3)%len(all)]
			plans[g] = append(plans[g], run{w: p.Workload(), copies: (g + i) % 3})
		}
	}
	do := func(m *machine.Machine, r run) []machine.RawCounts {
		if r.copies == 0 {
			rc, err := m.Run(r.w, opts)
			if err != nil {
				t.Error(err)
				return nil
			}
			return []machine.RawCounts{*rc}
		}
		mc, err := m.RunMulti(r.w, r.copies, opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		var out []machine.RawCounts
		for _, rc := range mc.PerCopy {
			out = append(out, *rc)
		}
		return out
	}

	got := make([][][]machine.RawCounts, len(plans))
	var wg sync.WaitGroup
	for g, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range plan {
				got[g] = append(got[g], do(shared, r))
			}
		}()
	}
	wg.Wait()

	for g, plan := range plans {
		for i, r := range plan {
			alone, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := do(alone, r); !slices.Equal(got[g][i], want) {
				t.Errorf("goroutine %d run %d (%s, %d copies): concurrent result differs from an isolated run",
					g, i, r.w.Key, r.copies)
			}
		}
	}
}
