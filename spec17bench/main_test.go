package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments"
)

func TestSeedMapsToPureDistinctSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		for name, ops := range map[string]func(int64) []int{"exact": exactColdOps, "writer": writerOps} {
			a, b := ops(seed), ops(seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s ops for seed %d differ between calls", name, seed)
			}
			seen := make(map[int]bool)
			for _, f := range a {
				if seen[f] {
					t.Fatalf("%s ops for seed %d repeat fidelity %d", name, seed, f)
				}
				seen[f] = true
			}
			if reflect.DeepEqual(a, ops(seed+1)) {
				t.Errorf("%s ops for seeds %d and %d are identical", name, seed, seed+1)
			}
		}
		if !reflect.DeepEqual(readerOps(seed, 100), readerOps(seed, 100)) {
			t.Fatalf("reader ops for seed %d differ between calls", seed)
		}
		// The hit probe times the same mix on every seed, whatever order
		// its caller lists the paths in.
		hits := hitProbeSeq(seed, []string{"/b", "/a", "/c"}, 100)
		if !reflect.DeepEqual(hits, hitProbeSeq(seed, []string{"/c", "/b", "/a"}, 100)) {
			t.Fatalf("hit probe for seed %d depends on the order of its paths", seed)
		}
		count := make(map[string]int)
		for _, p := range hits {
			count[p]++
		}
		if len(hits) != 102 || count["/a"] != 34 || count["/b"] != 34 || count["/c"] != 34 {
			t.Errorf("hit probe for seed %d requests %v, want 34 of each", seed, count)
		}
		order := analysisOrder(seed, 0)
		if !reflect.DeepEqual(order, analysisOrder(seed, 0)) {
			t.Fatalf("analysis order for seed %d differs between calls", seed)
		}
		got, want := append([]string(nil), order...), experiments.IDs()
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("analysis order for seed %d is not a permutation of the registry", seed)
		}
	}
	for _, f := range exactColdOps(3) {
		if f < 49_900 || f > 50_100 {
			t.Errorf("exact-cold fidelity %d is not near 50 000", f)
		}
	}
	// Every accepted --seconds fits its op counts, warm-up op included,
	// in the fidelity pools, and gives each client a fixed op count.
	for _, s := range []int{1, 20, maxSeconds} {
		if n := opCount(s, exactOpNominal, 3); n < 3 || 1+n > len(exactColdOps(1)) {
			t.Errorf("--seconds %d: %d exact-cold ops, pool of %d", s, n, len(exactColdOps(1)))
		}
		if n := opCount(s, writerOpNominal, 1); 1+n > len(writerOps(1)) {
			t.Errorf("--seconds %d: %d writer ops, pool of %d", s, n, len(writerOps(1)))
		}
		n := opCount(s, readerOpNominal, 1)
		if got := len(readerOps(1, n)); got < n || got%len(readerIDs) != 0 || got >= n+len(readerIDs) {
			t.Errorf("--seconds %d: %d reader ops, want %d rounded up to a multiple of %d", s, got, n, len(readerIDs))
		}
	}
	if code := run([]string{"--workload", "serve-mix", "--seconds", fmt.Sprint(maxSeconds + 1)}, io.Discard, io.Discard); code != 2 {
		t.Errorf("--seconds %d: exit %d, want 2", maxSeconds+1, code)
	}
}

func TestTailRefusesUnsupportedPercentiles(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.90, false}, {100, 0.90, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{3, 0.5, false}, {0, 0.9, false},
	} {
		v, err := tail(samples(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("tail(n=%d, q=%v): err %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok {
			if want := math.Ceil(c.q * float64(c.n)); v != want {
				t.Errorf("tail(n=%d, q=%v) = %v, want %v", c.n, c.q, v, want)
			}
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestFitLineRecoversInterceptAndSlope(t *testing.T) {
	// Two fidelities per leaf, as the leaf probe measures them, with
	// alternating noise that cancels in the least-squares fit.
	const intercept, slope = 6.2, 4.5e-5
	var xs, ys []float64
	for i := 0; i < 20; i++ {
		noise := 0.01
		if i%2 == 1 {
			noise = -noise
		}
		for _, x := range []float64{30_000, 60_000} {
			xs = append(xs, x)
			ys = append(ys, intercept+slope*x+noise)
		}
	}
	a, b, err := fitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-intercept) > 1e-9 || math.Abs(b-slope) > 1e-12 {
		t.Errorf("fit = (%v, %v), want (%v, %v)", a, b, intercept, slope)
	}
	if _, _, err := fitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("fit over one distinct x succeeded")
	}
}

// TestCatalogMatchesBenchmarkJSON pins every metric the program can
// print (env.add and env.layer accept catalog names only) to
// BENCHMARK.json, with the same unit and direction, and back.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cat  []def
		json []entry
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.cat) != len(c.json) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", c.name, len(c.cat), len(c.json))
		}
		for _, j := range c.json {
			d, ok := lookup(c.cat, j.Name)
			if !ok {
				t.Errorf("%s: BENCHMARK.json metric %s is not in the catalog", c.name, j.Name)
				continue
			}
			if d.unit != j.Unit || d.better != j.Better {
				t.Errorf("%s: %s is %s/%s in the catalog, %s/%s in BENCHMARK.json",
					c.name, j.Name, d.unit, d.better, j.Unit, j.Better)
			}
		}
	}
	// analysis-warm is implemented but not listed: it runs by hand (see
	// BENCHMARK.md, "Workloads").
	listed := map[string]bool{"analysis-warm": true}
	for _, w := range bj.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is implemented but not in BENCHMARK.json", name)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	got := covered([][2]int64{{10, 20}, {0, 5}, {15, 30}, {40, 41}})
	if want := int64(5 + 20 + 1); got != want {
		t.Errorf("covered = %d, want %d", got, want)
	}
}

// TestResultLineFailsOnMissingMetric: a run that does not measure every
// metric of the catalog it reports is not correct.
func TestResultLineFailsOnMissingMetric(t *testing.T) {
	var ms []metric
	for _, d := range endToEnd[1:] {
		ms = append(ms, metric{d.name, 1, d.unit})
	}
	e := &env{}
	line, err := resultLine(e, ms, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || len(e.failures) != 1 {
		t.Errorf("missing %s: correct %v, %d failed (%v), want false, 1", endToEnd[0].name, res.Correct, res.Failed, e.failures)
	}
}

func TestHitBodyMarksOnlyTheTopLevelField(t *testing.T) {
	miss := []byte("{\n  \"id\": \"t\",\n  \"cached\": false,\n  \"result\": {\n    \"cached\": false\n  }\n}\n")
	want := "{\n  \"id\": \"t\",\n  \"cached\": true,\n  \"result\": {\n    \"cached\": false\n  }\n}\n"
	got, err := hitBody(miss)
	if err != nil || string(got) != want {
		t.Errorf("hitBody = %q, %v; want %q", got, err, want)
	}
	if _, err := hitBody([]byte("{\n  \"cached\": true,\n}")); err == nil {
		t.Error("hitBody accepted a body without a top-level \"cached\": false")
	}
}
