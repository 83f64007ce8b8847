package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

// schedEntries returns a small entry list for scheduler tests.
func schedEntries(t *testing.T, names ...string) []Entry {
	t.Helper()
	var entries []Entry
	for _, name := range names {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
	}
	return entries
}

// TestCharacterizeScheduledMatchesUnscheduled: the scheduler changes
// when and where measurements run, never what they produce.
func TestCharacterizeScheduledMatchesUnscheduled(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}

	want, err := CharacterizeStored(context.Background(), entries, machines, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2, nil)
	got, err := CharacterizeScheduled(context.Background(), entries, machines, opts, nil, pool.Queue(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range want.Labels {
		for _, m := range want.MachineNames {
			wrc, err := want.Raw(label, m)
			if err != nil {
				t.Fatal(err)
			}
			grc, err := got.Raw(label, m)
			if err != nil {
				t.Fatalf("scheduled characterization missing %s on %s: %v", label, m, err)
			}
			if *wrc != *grc {
				t.Errorf("%s on %s: scheduled and unscheduled raw counts differ", label, m)
			}
		}
	}
}

// TestCharacterizeScheduledSharesMeasurements is the batch-overlap
// invariant end to end: two characterizations of the same entries
// submitted through one shared scheduler perform each simulation
// exactly once. The pool's only worker is held by a blocker job until
// the second characterization has joined every one of the first's
// pending jobs, so the dedup cannot be timing luck.
func TestCharacterizeScheduledSharesMeasurements(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	pairs := len(entries) * len(machines)

	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(1, nil)

	// Hold the single worker so every measurement of both
	// characterizations is still pending when the overlap happens.
	release := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Queue(0).Do(context.Background(), "blocker", func(context.Context) (any, error) {
			<-release
			return nil, nil
		})
	}()
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Inflight == 1 })

	type result struct {
		c   *Characterization
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := CharacterizeScheduled(context.Background(), entries, machines, opts, st, pool.Queue(0))
			results <- result{c, err}
		}()
	}
	// Both characterizations have fanned out: pairs jobs queued, and
	// the latecomer joined every one of them.
	waitForPool(t, pool, func(s sched.Stats) bool {
		return s.Depth == pairs && s.DedupHits >= int64(pairs)
	})
	close(release)
	<-blockerDone

	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.c.Labels) != len(entries) {
			t.Fatalf("characterization has %d labels, want %d", len(r.c.Labels), len(entries))
		}
	}
	// Every pair simulated once: the store led exactly `pairs`
	// computations, and the scheduler deduplicated the rest.
	if misses := st.Stats().Misses; misses != int64(pairs) {
		t.Errorf("simulations = %d, want %d (overlapping characterizations must share)", misses, pairs)
	}
	if hits := pool.Stats().DedupHits; hits < int64(pairs) {
		t.Errorf("sched dedup hits = %d, want >= %d", hits, pairs)
	}
}

// TestCharacterizeScheduledCancellation: canceling the caller's
// context abandons the characterization promptly and reports the
// context error.
func TestCharacterizeScheduledCancellation(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	pool := sched.NewPool(1, nil)

	// Hold the worker so nothing can finish, then cancel.
	release := make(chan struct{})
	defer close(release)
	go pool.Queue(0).Do(context.Background(), "blocker", func(context.Context) (any, error) {
		<-release
		return nil, nil
	})
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Inflight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CharacterizeScheduled(ctx, entries, machines, machine.RunOptions{Instructions: 2_000}, nil, pool.Queue(0))
		done <- err
	}()
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Depth > 0 })
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled characterization did not return")
	}
	// The abandoned jobs were dropped from the queue.
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Depth == 0 })
}

func waitForPool(t *testing.T, p *sched.Pool, cond func(sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for pool condition; stats %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// holdingRunner counts submissions per key and holds every one until
// want have arrived, so all of a characterization's submissions are
// pending at once — the window in which a duplicate would be
// submitted a second time.
type holdingRunner struct {
	mu      sync.Mutex
	calls   map[string]int
	n, want int
	release chan struct{}
}

func (r *holdingRunner) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	r.mu.Lock()
	r.calls[key]++
	if r.n++; r.n == r.want {
		close(r.release)
	}
	r.mu.Unlock()
	select {
	case <-r.release:
		return fn(ctx)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCharacterizeSubmitsEachLeafOnce: entries that name one workload
// under two labels (as experiments.Entries does for a multi-input
// benchmark's first input) submit that leaf once, and both labels get
// the same counts.
func TestCharacterizeSubmitsEachLeafOnce(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	entries = append(entries, Entry{Label: "505.mcf_r/input1", Workload: entries[0].Workload})
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	distinct := 2 * len(machines)

	r := &holdingRunner{calls: map[string]int{}, want: distinct, release: make(chan struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := CharacterizeScheduled(ctx, entries, machines, opts, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.calls) != distinct || r.n != distinct {
		t.Errorf("%d submissions of %d keys, want %d of %d", r.n, len(r.calls), distinct, distinct)
	}
	for key, n := range r.calls {
		if n != 1 {
			t.Errorf("key %s submitted %d times, want once", key, n)
		}
	}
	for _, m := range c.MachineNames {
		a, err := c.Raw("505.mcf_r", m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Raw("505.mcf_r/input1", m)
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Errorf("%s: labels sharing one leaf got different counts", m)
		}
	}

	// The unscheduled path measures each distinct leaf once as well.
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeStored(context.Background(), entries, machines, opts, st); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Misses != int64(distinct) || s.Hits != 0 {
		t.Errorf("store misses/hits = %d/%d, want %d/0", s.Misses, s.Hits, distinct)
	}
}
