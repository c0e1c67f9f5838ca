package schedcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

func testLoop(t testing.TB, m *machine.Machine, name string, loads int) *ir.Loop {
	t.Helper()
	b := ir.NewBuilder(name, m)
	p := b.Invariant("p")
	var last ir.Value
	for i := 0; i < loads; i++ {
		last = b.Define("load", p)
	}
	v := b.Define("fadd", last, last)
	b.Effect("store", p, v)
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func compileDirect(l *ir.Loop, m *machine.Machine, opts core.Options) CompileFunc {
	return func() (*core.Schedule, *core.Degradation, error) {
		return core.ModuloScheduleBestEffort(nil, l, m, opts)
	}
}

func TestCacheHitReturnsEqualSchedule(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "hit", 2)
	opts := core.DefaultOptions()
	c := New(8)

	s1, d1, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	s2, d2, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		t.Fatal("second Do must not compile")
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) {
		t.Fatalf("cache hit differs from miss result:\nmiss %+v\nhit  %+v", s1, s2)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestCacheHitIsDeepCopy pins the anti-poisoning property: mutating a
// returned schedule must not corrupt later hits.
func TestCacheHitIsDeepCopy(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "poison", 2)
	opts := core.DefaultOptions()
	c := New(8)

	s1, _, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	wantTimes := append([]int(nil), s1.Times...)
	// Poison every mutable part of the miss result and of a hit result.
	for i := range s1.Times {
		s1.Times[i] = -99
	}
	s2, _, err := c.Do(context.Background(), l, m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.Times, wantTimes) {
		t.Fatalf("hit observed miss caller's mutation: %v, want %v", s2.Times, wantTimes)
	}
	for i := range s2.Times {
		s2.Times[i] = -77
	}
	s3, _, err := c.Do(context.Background(), l, m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s3.Times, wantTimes) {
		t.Fatalf("hit observed earlier hit's mutation: %v, want %v", s3.Times, wantTimes)
	}
}

// TestCacheKeyStructuralIdentity: clones and re-parses hit the entries
// of their originals; different options and different loops miss.
func TestCacheKeyStructuralIdentity(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "ident", 2)
	opts := core.DefaultOptions()

	if Key(l, m, opts) != Key(l, m.Clone(), opts) {
		t.Error("machine.Clone changed the cache key")
	}
	reparsed, err := looplang.Parse(looplang.Print(l), m)
	if err != nil {
		t.Fatal(err)
	}
	if Key(l, m, opts) != Key(reparsed, m, opts) {
		t.Error("looplang round-trip changed the cache key")
	}

	bopts := opts
	bopts.BudgetRatio = 6
	if Key(l, m, opts) == Key(l, m, bopts) {
		t.Error("BudgetRatio change did not change the cache key")
	}
	if Key(testLoop(t, m, "ident", 3), m, opts) == Key(l, m, opts) {
		t.Error("different loops share a cache key")
	}
	// Identity-only header fields — the loop's name and profile weights —
	// never reach the scheduler and must not fragment the cache: a corpus
	// is full of structurally identical loops under different names.
	if Key(testLoop(t, m, "other-name", 2), m, opts) != Key(l, m, opts) {
		t.Error("loop name fragments the cache key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := machine.Cydra5()
	opts := core.DefaultOptions()
	c := New(2)

	loops := []*ir.Loop{
		testLoop(t, m, "a", 1),
		testLoop(t, m, "b", 2),
		testLoop(t, m, "c", 3),
	}
	for _, l := range loops {
		if _, _, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || c.Len() != 2 {
		t.Fatalf("stats = %+v len = %d, want 1 eviction and len 2", st, c.Len())
	}
	// "a" was evicted (LRU); "c" and "b" remain.
	compiled := false
	if _, _, err := c.Do(context.Background(), loops[0], m, opts, func() (*core.Schedule, *core.Degradation, error) {
		compiled = true
		return core.ModuloScheduleBestEffort(nil, loops[0], m, opts)
	}); err != nil {
		t.Fatal(err)
	}
	if !compiled {
		t.Fatal("evicted entry served a hit")
	}
	// Re-inserting "a" evicted "b" (the new LRU tail); "c" must still be
	// cached: a hit, no compile.
	if _, _, err := c.Do(context.Background(), loops[2], m, opts, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 hit", st)
	}
}

// TestCacheSingleflight pins execute-once semantics for duplicate
// concurrent compiles: N racing callers, one compile, everyone gets an
// equal schedule.
func TestCacheSingleflight(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "flight", 3)
	opts := core.DefaultOptions()
	c := New(8)

	var compiles atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	scheds := make([]*core.Schedule, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			scheds[i], _, errs[i] = c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
				compiles.Add(1)
				return core.ModuloScheduleBestEffort(nil, l, m, opts)
			})
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("%d compiles for %d concurrent callers, want 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(scheds[i].Times, scheds[0].Times) {
			t.Fatalf("caller %d got a different schedule", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Inflight != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+inflight", st, callers-1)
	}
}

// TestCacheErrorsNotCached: a failing compile is re-executed by the next
// caller instead of serving the stale error.
func TestCacheErrorsNotCached(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "errs", 1)
	opts := core.DefaultOptions()
	c := New(8)

	boom := errors.New("transient failure")
	calls := 0
	fail := func() (*core.Schedule, *core.Degradation, error) {
		calls++
		return nil, nil, fmt.Errorf("attempt %d: %w", calls, boom)
	}
	if _, _, err := c.Do(context.Background(), l, m, opts, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if _, _, err := c.Do(context.Background(), l, m, opts, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if calls != 2 {
		t.Fatalf("failing compile executed %d times, want 2 (errors must not be cached)", calls)
	}
	// A subsequent success is cached normally.
	if _, _, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(context.Background(), l, m, opts, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit after recovery", st)
	}
}

// TestMachineFingerprintCloneIdentity is the clone-identity contract the
// cache key relies on, checked for all bundled machines.
// TestPanickingCompileReleasesKey: a compile that panics must not wedge
// its key. The panic reaches the leader's caller, a joiner of the flight
// gets an internal error, and the next caller compiles afresh.
func TestPanickingCompileReleasesKey(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "panics", 2)
	opts := core.DefaultOptions()
	c := New(8)

	release := make(chan struct{})
	leader := make(chan any)
	go func() {
		defer func() { leader <- recover() }()
		c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
			<-release
			panic("compile blew up")
		})
	}()
	joined := make(chan error)
	go func() {
		for c.Stats().Misses == 0 {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _, err := c.Do(ctx, l, m, opts, compileDirect(l, m, opts))
		joined <- err
	}()
	for c.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-leader; r == nil {
		t.Error("the compile's panic did not reach the leader's caller")
	}
	if err := <-joined; !errors.Is(err, core.ErrInternal) {
		t.Errorf("joiner of the panicked flight got %v, want an ErrInternal", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	s, _, err := c.Do(ctx, l, m, opts, compileDirect(l, m, opts))
	if err != nil || s == nil {
		t.Fatalf("Do after a panicked compile: schedule %v, error %v", s, err)
	}
}

func TestMachineFingerprintCloneIdentity(t *testing.T) {
	for _, m := range []*machine.Machine{
		machine.Cydra5(),
		machine.Generic(machine.DefaultUnitConfig()),
		machine.Tiny(),
	} {
		if m.Fingerprint() != m.Clone().Fingerprint() {
			t.Errorf("machine %s: Clone changed the fingerprint", m.Name)
		}
	}
	// And a genuine difference must change it.
	m := machine.Tiny().Clone()
	m.MustOpcode("load").Latency++
	if m.Fingerprint() == machine.Tiny().Fingerprint() {
		t.Error("latency change did not change the fingerprint")
	}
}

// BenchmarkCacheHit measures the whole hit path — key derivation plus
// the deep copy — which bounds the overhead the cache adds to every
// memoized compile.
func BenchmarkCacheHit(b *testing.B) {
	m := machine.Cydra5()
	l := testLoop(b, m, "bench", 4)
	opts := core.DefaultOptions()
	c := New(8)
	if _, _, err := c.Do(context.Background(), l, m, opts, compileDirect(l, m, opts)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Do(context.Background(), l, m, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKeyDistinctForDelimiterCollidingMachines: the machine half of the
// cache key is the fingerprint digest, so the delimiter-injection pair
// from the machine package's regression test (one resource "a,b" vs two
// resources "a" and "b"; one alternative "x[] alt y" vs two alternatives
// "x" and "y") must occupy distinct cache keys — under the old rendering
// they shared one and poisoned every fingerprint-keyed layer.
func TestKeyDistinctForDelimiterCollidingMachines(t *testing.T) {
	a := machine.New("m", "a,b")
	a.MustAddOpcode(&machine.Opcode{Name: "op", Latency: 1,
		Alternatives: []machine.Alternative{{Name: "x[] alt y"}}})
	b := machine.New("m", "a", "b")
	b.MustAddOpcode(&machine.Opcode{Name: "op", Latency: 1,
		Alternatives: []machine.Alternative{{Name: "x"}, {Name: "y"}}})

	bld := ir.NewBuilder("l", nil)
	bld.Effect("op", bld.Invariant("p"))
	l, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	ka, kb := Key(l, a, opts), Key(l, b, opts)
	if ka == kb {
		t.Fatalf("delimiter-colliding machines share the cache key %s", ka)
	}
}

// TestKeyPinned pins one key to its literal digest. Cache keys are
// persistent identities: they name diskcache entries, pick the replica a
// front proxy routes to, and derive idempotent job ids, so a change to
// the key derivation orphans all of them. Update the literal only with a
// deliberate key-format change.
func TestKeyPinned(t *testing.T) {
	m := machine.Cydra5()
	l, err := looplang.Parse(`
loop daxpy
xi = aadd xi@1, #8
x  = load xi
yi = aadd yi@1, #8
y  = load yi
t1 = fmul a, x
t2 = fadd y, t1
si = aadd si@1, #8
st: store si, t2
brtop
`, m)
	if err != nil {
		t.Fatal(err)
	}
	const want = "a03fbf94da945dcba0126630a8deb74d5b973e7da24166f6e35a19c982b21084"
	if got := Key(l, m, core.DefaultOptions()); got != want {
		t.Errorf("Key(daxpy, Cydra5, DefaultOptions) = %s, want %s", got, want)
	}
}
