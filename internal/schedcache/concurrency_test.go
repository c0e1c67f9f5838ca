package schedcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/machine"
)

// TestConcurrentHammerAccounting drives one cache from many goroutines
// with overlapping keys — the access pattern of a compile server under
// load — and checks the exact traffic accounting that makes the /metrics
// counters trustworthy:
//
//   - every distinct key compiles exactly once (Misses == #keys): a
//     second miss for a key can only happen if the entry or the flight
//     was lost, and errors never occur here;
//   - every other call is a hit or an in-flight join, so
//     Hits + Inflight == calls - #keys;
//   - schedules returned to different callers never alias: each caller
//     owns a deep copy, so a server handing results to concurrent
//     requests cannot let one response's consumer corrupt another's.
//
// Run with -race: the interleavings are the point.
func TestConcurrentHammerAccounting(t *testing.T) {
	m := machine.Cydra5()
	opts := core.DefaultOptions()
	const (
		goroutines = 8
		rounds     = 24
		keys       = 4
	)
	loops := make([]*ir.Loop, keys)
	for i := range loops {
		loops[i] = testLoop(t, m, "hammer", i+1)
	}

	c := New(64)
	type got struct {
		key   int
		sched *core.Schedule
	}
	results := make([][]got, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				// Stagger the key order per goroutine so every pair of
				// goroutines overlaps on every key at some point.
				k := (r + g) % keys
				l := loops[k]
				s, _, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				results[g] = append(results[g], got{key: k, sched: s})
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	st := c.Stats()
	calls := int64(goroutines * rounds)
	if st.Misses != keys {
		t.Errorf("Misses = %d, want exactly %d (one compile per distinct key)", st.Misses, keys)
	}
	if st.Hits+st.Inflight != calls-keys {
		t.Errorf("Hits (%d) + Inflight (%d) = %d, want calls - keys = %d",
			st.Hits, st.Inflight, st.Hits+st.Inflight, calls-keys)
	}
	if st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 (capacity exceeds key count)", st.Evictions)
	}
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}

	// No two calls — same goroutine or different — may share a *Schedule
	// or its Times backing array.
	seen := make(map[*core.Schedule]bool)
	seenTimes := make(map[*int]bool)
	perKey := make(map[int]*core.Schedule)
	for g := range results {
		for _, r := range results[g] {
			if seen[r.sched] {
				t.Fatalf("two calls returned the same *Schedule %p", r.sched)
			}
			seen[r.sched] = true
			if len(r.sched.Times) == 0 {
				t.Fatal("schedule with empty Times")
			}
			if p := &r.sched.Times[0]; seenTimes[p] {
				t.Fatalf("two schedules share a Times backing array %p", p)
			} else {
				seenTimes[p] = true
			}
			// All copies of one key must agree on the schedule content.
			if first, ok := perKey[r.key]; !ok {
				perKey[r.key] = r.sched
			} else if first.II != r.sched.II || first.Length != r.sched.Length {
				t.Fatalf("key %d: divergent schedules II=%d/%d SL=%d/%d",
					r.key, first.II, r.sched.II, first.Length, r.sched.Length)
			}
		}
	}
}

// TestConcurrentMissesCoalesce pins the singleflight behavior
// deterministically: while one compile is in progress, every concurrent
// Do for the same key joins the flight (Inflight) instead of compiling
// again. The master compile blocks until the cache reports that all the
// latecomers have joined, so the schedule of counters is forced, not
// left to the race.
func TestConcurrentMissesCoalesce(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "coalesce", 3)
	opts := core.DefaultOptions()
	c := New(8)

	const latecomers = 7
	inCompile := make(chan struct{})
	var wg sync.WaitGroup
	scheds := make([]*core.Schedule, latecomers+1)

	// Master: registers the flight, then blocks inside compile until every
	// latecomer is accounted for as an in-flight join.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, _, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
			close(inCompile)
			deadline := time.Now().Add(30 * time.Second)
			for c.Stats().Inflight < latecomers {
				if time.Now().After(deadline) {
					t.Error("latecomers never joined the flight")
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			return compileDirect(l, m, opts)()
		})
		if err != nil {
			t.Errorf("master: %v", err)
			return
		}
		scheds[0] = s
	}()

	<-inCompile
	for i := 0; i < latecomers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, _, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
				t.Error("latecomer must join the flight, not compile")
				return compileDirect(l, m, opts)()
			})
			if err != nil {
				t.Errorf("latecomer %d: %v", i, err)
				return
			}
			scheds[i+1] = s
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := c.Stats()
	if st.Misses != 1 || st.Inflight != latecomers || st.Hits != 0 {
		t.Errorf("stats = %+v, want exactly 1 miss, %d inflight joins, 0 hits", st, latecomers)
	}
	for i, s := range scheds {
		for j := i + 1; j < len(scheds); j++ {
			if s == scheds[j] {
				t.Fatalf("callers %d and %d share a *Schedule", i, j)
			}
			if &s.Times[0] == &scheds[j].Times[0] {
				t.Fatalf("callers %d and %d share a Times array", i, j)
			}
		}
	}
}

// TestJoinerSurvivesLeaderCancellation: a flight that ends in its
// leader's context error is the leader's circumstance, not the key's. A
// joiner with a live context must not inherit it; it retries, leads a
// new flight, and gets a schedule.
func TestJoinerSurvivesLeaderCancellation(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "cancelled-leader", 3)
	opts := core.DefaultOptions()
	c := New(8)

	inCompile := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
			close(inCompile)
			deadline := time.Now().Add(30 * time.Second)
			for c.Stats().Inflight < 1 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			return nil, nil, fmt.Errorf("leader: %w", context.Canceled)
		})
		leaderErr <- err
	}()

	<-inCompile
	s, _, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts))
	if err != nil {
		t.Fatalf("joiner inherited the leader's cancellation: %v", err)
	}
	if s == nil || s.Loop != l {
		t.Fatalf("joiner got schedule %+v", s)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want its own context.Canceled", err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Inflight != 1 {
		t.Errorf("stats = %+v, want 2 misses (cancelled flight, retry) and 1 inflight join", st)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want the retry's 1", c.Len())
	}
}

// TestDeadJoinerReturnsOwnErr: a joiner whose context is already done
// returns its own ctx.Err() at once instead of waiting on the flight.
func TestDeadJoinerReturnsOwnErr(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "dead-joiner", 3)
	opts := core.DefaultOptions()
	c := New(8)

	inCompile := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
			close(inCompile)
			<-release
			return compileDirect(l, m, opts)()
		})
		leaderDone <- err
	}()
	defer func() {
		close(release)
		if err := <-leaderDone; err != nil {
			t.Errorf("leader: %v", err)
		}
	}()

	<-inCompile
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, _, err := c.Do(ctx, l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		t.Error("a joiner must not compile")
		return nil, nil, nil
	})
	if s != nil || err != ctx.Err() {
		t.Errorf("dead joiner got (%v, %v), want (nil, %v)", s, err, ctx.Err())
	}
	if st := c.Stats(); st.Inflight != 1 {
		t.Errorf("stats = %+v, want the joiner counted as 1 inflight join", st)
	}
}
