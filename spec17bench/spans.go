package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-side span: a call the benchmark made into one
// layer. Times are nanoseconds since the run started; Parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	RunID  string `json:"run_id"`
}

// recorder keeps a run's spans in memory. A nil recorder (untraced
// runs) records nothing and costs one nil check per call.
type recorder struct {
	runID string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(runID string, t0 time.Time) *recorder {
	return &recorder{runID: runID, t0: t0}
}

// start opens a span under parent and returns its index (-1 when
// recording is off).
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, RunID: r.runID})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// write stores the run's hardware fingerprint and spans as JSON at
// path.
func (r *recorder) write(path string, hw fingerprint) error {
	r.mu.Lock()
	data, err := json.MarshalIndent(struct {
		RunID    string      `json:"run_id"`
		Hardware fingerprint `json:"hardware"`
		Spans    []span      `json:"spans"`
	}{r.runID, hw, r.spans}, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns each layer's self time in seconds: the summed
// duration of its spans minus the part of each span its children
// cover. A span's layer is its name up to the first dot.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[i])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of intervals (children of
// one span may overlap: serve-mix's two clients run concurrently).
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// runID names one run of the benchmark.
func runID(workload string, seed int64, t0 time.Time) string {
	return fmt.Sprintf("%s-s%d-%d", workload, seed, t0.UnixNano())
}
