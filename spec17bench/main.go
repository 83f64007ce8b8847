// Command spec17bench is the repository's benchmark: three workloads
// against an in-process spec17d (server.New configured like
// cmd/spec17d's flag defaults, with one simulation worker), each
// printing its end-to-end metrics by name with their units after
// checking every response it got.
//
// Usage, from the repository root:
//
//	bash spec17bench/run.sh --workload exact-cold|analysis-warm|serve-mix \
//	    --seed N --seconds S --trace 0|1
//
// --trace 1 is the separate traced run: it records benchmark-side
// spans, times calls into each layer's public functions, prints the
// layer table and reports the per-layer metrics instead. The last line
// of standard output is one JSON object: correct, attempted, failed,
// metrics. The exit code is 0 only when every check passed.
//
// --write-digests recomputes the committed response digests
// (spec17bench/digests.json) from the current code.
//
// See BENCHMARK.md for the workloads, metrics, predictions and
// measured spreads.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// processStart stands in for process start: package variables are
// initialized before main runs.
var processStart = time.Now()

var workloads = map[string]func(*env) (*outcome, error){
	"exact-cold":    runExactCold,
	"analysis-warm": runAnalysisWarm,
	"serve-mix":     runServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spec17bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: exact-cold, analysis-warm or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's op sequence is derived from")
	seconds := fs.Int("seconds", 20, "nominal length of the measured phase (fixes the op count)")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	writeDigests := fs.Bool("write-digests", false, "recompute "+digestsPath+" from the current code and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests {
		if err := writeAllDigests(stderr); err != nil {
			fmt.Fprintln(stderr, "spec17bench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seconds > maxSeconds || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "spec17bench: need --workload (exact-cold, analysis-warm, serve-mix), --seconds 1 to %d and --trace 0 or 1\n", maxSeconds)
		return 2
	}

	dg, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "spec17bench:", err)
		return 2
	}
	fleet, _, err := fleetByName()
	if err != nil {
		fmt.Fprintln(stderr, "spec17bench:", err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	e := &env{workload: *workload, stdout: out, seed: *seed, seconds: *seconds,
		t0: processStart, dg: dg, fleet: fleet, root: -1}
	if *traced == 1 {
		e.rec = newRecorder(runID(*workload, *seed, processStart), processStart)
		e.root = e.rec.start("bench.run", -1)
	}
	hw := hardware()
	hwJSON, _ := json.Marshal(hw) // plain struct: cannot fail
	fmt.Fprintf(out, "hardware: %s\n", hwJSON)

	res, err := runWorkload(e)
	if err != nil {
		fmt.Fprintln(stderr, "spec17bench:", err)
		return 2
	}

	// The exact engine against its committed golden counts, outside
	// the timed phase.
	e.golden()

	if e.rec != nil {
		if err := runLayers(e, res); err != nil {
			fmt.Fprintln(stderr, "spec17bench:", err)
			return 2
		}
		e.rec.end(e.root)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := e.rec.write(path, hw); err != nil {
			fmt.Fprintln(stderr, "spec17bench: writing spans:", err)
			return 2
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}

	e.report(out, res)
	reported, catalog := e.metrics, endToEnd
	if e.rec != nil {
		reported, catalog = e.layers, perLayer
	}
	line, err := resultLine(e, reported, catalog)
	if err != nil {
		fmt.Fprintln(stderr, "spec17bench:", err)
		return 2
	}
	for _, f := range e.failures {
		fmt.Fprintln(stderr, "check failed:", f)
	}
	fmt.Fprintln(out, line)
	if e.failed > 0 {
		return 1
	}
	return 0
}

// report prints the human-readable tables.
func (e *env) report(w io.Writer, res *outcome) {
	clock := "process CPU"
	if e.workload == "serve-mix" {
		clock = "wall"
	}
	fmt.Fprintf(w, "\n%s seed %d: %d ops in the measured phase; set-up on the process CPU clock, phase and request latencies on the %s clock\n",
		e.workload, e.seed, res.ops, clock)
	fmt.Fprintf(w, "phase: %.2f s wall, %.2f s process CPU, %.1f%% of all CPU time stolen by the hypervisor\n",
		res.phase.wall, res.phase.cpu, 100*res.phase.stealFrac)
	fmt.Fprintf(w, "checks and ops: %d attempted, %d failed\n", e.attempted, e.failed)
	fmt.Fprintf(w, "samples: %d cold", len(res.coldMS))
	if len(res.hitMS) > 0 {
		fmt.Fprintf(w, ", %d hit", len(res.hitMS))
	}
	fmt.Fprintln(w)
	for _, m := range e.metrics {
		fmt.Fprintf(w, "  %-18s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range e.notes {
		fmt.Fprintf(w, "  not gated: %s\n", n)
	}
	if e.rec == nil {
		return
	}
	fmt.Fprintf(w, "\nlayer table (%s):\n", e.workload)
	fmt.Fprintf(w, "  %-40s %14s %-6s %s\n", "metric", "value", "unit", "should move")
	for _, m := range e.layers {
		d, _ := lookup(perLayer, m.name)
		fmt.Fprintf(w, "  %-40s %14.6g %-6s %s\n", m.name, m.value, m.unit, d.moves)
	}
	self := e.rec.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "\nbenchmark-side span self time by layer:\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-14s %10.3f s\n", l, self[l])
	}
}

// resultLine renders the final JSON line. A metric of the catalog the
// run reports (end-to-end, or per-layer when traced) that was not
// measured, or has no finite value, fails a check.
func resultLine(e *env, ms []metric, catalog []def) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(ms))
	measured := make(map[string]bool, len(ms))
	for _, m := range ms {
		measured[m.name] = true
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			e.op(fmt.Errorf("metric %s has no value", m.name))
			continue
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	for _, d := range catalog {
		if !measured[d.name] {
			e.op(fmt.Errorf("metric %s was not measured", d.name))
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{e.failed == 0, e.attempted, e.failed, metrics})
	return string(b), err
}

// fingerprint identifies the hardware a result came from.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hardware() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeAllDigests recomputes the digest of every body a run can
// check: the exact-cold and writer pools, the reader's misses and
// hits, and all 29 experiments at the analysis-warm fidelity. The
// exact pool (minutes of simulation) runs beside the rest.
func writeAllDigests(stderr io.Writer) error {
	var (
		mu   sync.Mutex
		d    = digests{}
		wg   sync.WaitGroup
		errs = make([]error, 2)
	)
	fetch := func(paths []string) error {
		reg := metrics.NewRegistry()
		st, err := openStore(reg)
		if err != nil {
			return err
		}
		dm, err := startDaemon(st, reg, true)
		if err != nil {
			return err
		}
		defer dm.stop()
		c := newClient(dm.url)
		defer c.close()
		for _, p := range paths {
			path, key := p, p
			if base, ok := strings.CutSuffix(p, "#hit"); ok {
				path = base
			}
			body, _, err := c.get(path)
			if err != nil {
				return err
			}
			mu.Lock()
			d[key] = digest(body)
			mu.Unlock()
		}
		fmt.Fprintf(stderr, "digested %d bodies\n", len(paths))
		return nil
	}
	var exact, rest []string
	for k := 0; k < exactPoolSize; k++ {
		exact = append(exact, experimentPath("table2", exactPoolBase+k, false))
	}
	for _, id := range readerIDs {
		p := experimentPath(id, readerFidelity, true)
		rest = append(rest, p, p+"#hit")
	}
	// Fill ids first, as a run requests them; every body is a miss.
	seen := make(map[string]bool)
	for _, id := range append(append([]string(nil), fillIDs...), experiments.IDs()...) {
		if !seen[id] {
			seen[id] = true
			rest = append(rest, experimentPath(id, warmFidelity, false))
		}
	}
	for k := 0; k < writerPoolSize; k++ {
		rest = append(rest, experimentPath("table2", writerPoolBase+writerPoolStep*k, true))
	}
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = fetch(exact) }()
	go func() { defer wg.Done(); errs[1] = fetch(rest) }()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return d.save()
}
