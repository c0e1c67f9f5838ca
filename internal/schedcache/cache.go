// Package schedcache memoizes compilation results keyed by what actually
// determines them: the canonical loop text, the machine fingerprint, and
// the scheduling options. Repeated compilations of structurally
// identical loops — the dominant pattern in corpus sweeps, where the
// same kernels recur across parameter settings — return a cached
// schedule in O(copy) instead of re-running the II search.
//
// Three properties the tests pin:
//
//   - Keys are structural, not pointer-based. A machine.Clone() and its
//     original hit the same entries (Fingerprint identity); a re-parsed
//     loop hits the entry of its first parse (looplang.Print identity).
//   - Hits return deep copies rebound to the caller's loop and machine
//     pointers. A caller mutating a returned schedule cannot poison
//     later hits.
//   - Duplicate concurrent compiles of the same key execute once
//     (singleflight): latecomers block on the first flight and share its
//     result. Errors are never cached — a failed compile is retried by
//     the next caller — and a flight cancelled by its leader's context
//     is never handed to latecomers, who retry under their own.
package schedcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"modsched/internal/core"
	"modsched/internal/diskcache"
	"modsched/internal/ir"
	"modsched/internal/machine"
)

// DefaultCapacity bounds a zero-configured cache. Corpus sweeps hold a
// few thousand distinct loops; beyond that LRU eviction kicks in.
const DefaultCapacity = 4096

// Stats reports cache traffic. Hits served a stored entry, Misses
// executed the compile, Inflight joined an in-progress flight for the
// same key, Evictions counts LRU drops.
type Stats struct {
	Hits, Misses, Inflight, Evictions int64
}

// CompileFunc produces the value to cache on a miss. The key does not
// say which scheduler it runs, so all callers of one Cache must pass
// functions that run the same one.
type CompileFunc func() (*core.Schedule, *core.Degradation, error)

// entry is one cached compilation, stored detached from every caller.
type entry struct {
	key   string
	sched *core.Schedule
	deg   *core.Degradation
}

// flight is one in-progress compilation that latecomers can join.
type flight struct {
	done  chan struct{}
	sched *core.Schedule // master copy, set before done closes
	deg   *core.Degradation
	err   error
}

// Cache is a bounded, thread-safe memoizing compile cache. The zero
// value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of *entry; front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight
	// fps memoizes machine fingerprint digests by pointer: rendering and
	// hashing the full opcode table costs more than scheduling a small
	// loop, and the same machine backs every compile of a corpus run.
	// Consequence: a machine must not be mutated after its first use
	// with a cache.
	fps   map[*machine.Machine][sha256.Size]byte
	stats Stats
	// disk is the optional persistent tier (AttachDisk); consulted on a
	// memory miss before compiling, written through after one.
	disk *diskcache.Store
}

// New returns a cache holding at most capacity entries (DefaultCapacity
// if capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
		fps:     make(map[*machine.Machine][sha256.Size]byte),
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Key derives the canonical cache key: a hash over the machine
// fingerprint, the options, and the loop's structural rendering. Cache.Do
// computes the same key with the machine fingerprint memoized; keep the
// two in sync.
func Key(l *ir.Loop, m *machine.Machine, opts core.Options) string {
	return keyWith(sha256.Sum256([]byte(m.Fingerprint())), l, opts)
}

// KeyWithFingerprint is Key with the machine's fingerprint digest
// precomputed — the front proxy routes on cache keys at request rate,
// and rendering a full opcode table per request would dwarf the routing
// decision itself.
func KeyWithFingerprint(fingerprint [sha256.Size]byte, l *ir.Loop, opts core.Options) string {
	return keyWith(fingerprint, l, opts)
}

func keyWith(fingerprint [sha256.Size]byte, l *ir.Loop, opts core.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "options budget=%g delays=%d maxii=%d prio=%d restart=%t late=%t\n",
		opts.BudgetRatio, int(opts.DelayModel), opts.MaxII, int(opts.Priority),
		opts.RestartOnFailure, opts.PlaceLate)
	h.Write(fingerprint[:])
	writeCanonicalLoop(h, l)
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanonicalLoop streams the scheduling-relevant structure of l:
// every real operation's opcode, destination, guard, sources with
// iteration distances, and immediate, plus the explicit (mem, anti,
// output) dependence edges in a canonical order. Flow and control edges
// are fully derivable from the source references, and the loop's name,
// profile weights, and comments never reach the scheduler — a corpus is
// full of structurally identical loops under different names that must
// share one cache entry. The equivalence relation is the same as
// hashing the looplang rendering minus its header, at a fraction of the
// cost (no fmt, no per-call maps; Key is on every Do's hot path).
func writeCanonicalLoop(w io.Writer, l *ir.Loop) {
	buf := make([]byte, 0, 128)
	for _, op := range l.Ops {
		if op.IsPseudo() {
			continue
		}
		buf = append(buf[:0], op.Opcode...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(op.Dest), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(op.Pred), 10)
		buf = append(buf, '@')
		buf = strconv.AppendInt(buf, int64(op.PredDist), 10)
		for si, r := range op.Srcs {
			d := 0
			if op.SrcDists != nil {
				d = op.SrcDists[si]
			}
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(r), 10)
			buf = append(buf, '@')
			buf = strconv.AppendInt(buf, int64(d), 10)
		}
		buf = append(buf, ' ', '#')
		buf = strconv.AppendInt(buf, op.Imm, 10)
		buf = append(buf, '\n')
		w.Write(buf)
	}
	// The explicit edges may appear in any order in l.Edges (a looplang
	// round-trip re-sorts them); canonicalize before hashing.
	var edges []ir.Edge
	for _, e := range l.Edges {
		if e.Kind == ir.Mem || e.Kind == ir.Anti || e.Kind == ir.Output {
			edges = append(edges, e)
		}
	}
	delay := func(e ir.Edge) int {
		if e.DelayOverride == nil {
			return math.MinInt
		}
		return *e.DelayOverride
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Distance != b.Distance {
			return a.Distance < b.Distance
		}
		return delay(a) < delay(b)
	})
	for _, e := range edges {
		buf = append(buf[:0], '!')
		buf = strconv.AppendInt(buf, int64(e.Kind), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.From), 10)
		buf = append(buf, '>')
		buf = strconv.AppendInt(buf, int64(e.To), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Distance), 10)
		if e.DelayOverride != nil {
			buf = append(buf, '=')
			buf = strconv.AppendInt(buf, int64(*e.DelayOverride), 10)
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
}

// Do returns the cached compilation for (l, m, opts), executing compile
// on a miss. Concurrent misses of the same key execute compile once; the
// rest wait and share the result. The returned schedule is the caller's
// own deep copy, rebound to the caller's l and m pointers.
//
// ctx bounds only the wait on another caller's flight: a joiner whose
// ctx ends returns ctx.Err(), and a flight that ends in its leader's
// context error is retried (led anew or joined again) rather than shared.
// The compile itself observes whatever context compile closes over.
func (c *Cache) Do(ctx context.Context, l *ir.Loop, m *machine.Machine, opts core.Options, compile CompileFunc) (*core.Schedule, *core.Degradation, error) {
	key := keyWith(c.fingerprint(m), l, opts)

	c.mu.Lock()
	for {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			ent := el.Value.(*entry)
			c.stats.Hits++
			c.mu.Unlock()
			return copySchedule(ent.sched, l, m), copyDegradation(ent.deg), nil
		}
		f, ok := c.flights[key]
		if !ok {
			break
		}
		c.stats.Inflight++
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		if f.err == nil {
			return copySchedule(f.sched, l, m), copyDegradation(f.deg), nil
		}
		if !isContextErr(f.err) {
			return nil, nil, f.err
		}
		c.mu.Lock()
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	// A compile (or disk read) that panics must not leave its flight
	// published and open, or every later caller of the key would join it
	// and wait for good. Unwinding unpublishes it and wakes the joiners
	// with an internal error; the panic goes on to the caller.
	settled := false
	defer func() {
		if settled {
			return
		}
		c.mu.Lock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		default:
			f.err = fmt.Errorf("%w: schedcache: compile panicked", core.ErrInternal)
			close(f.done)
		}
	}()

	// The persistent tier, when attached, intercepts the compile: a
	// verified disk entry is promoted into memory without recompiling
	// (Stats.Misses keeps meaning "compile executed" — the disk store
	// counts its own hits). Latecomers joined the flight either way.
	sched, deg, fromDisk := c.diskGet(key, l, m, opts)
	var err error
	if !fromDisk {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		sched, deg, err = compile()
	}
	if err != nil {
		// Unpublish before waking the joiners, so one retrying after a
		// cancelled flight never finds the dead flight again.
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		f.err = err
		close(f.done)
		settled = true
		return nil, nil, err
	}
	// The master copy is detached from the result handed to the miss
	// caller, so their later mutations cannot reach the cache.
	f.sched, f.deg = copySchedule(sched, sched.Loop, sched.Machine), copyDegradation(deg)
	close(f.done)
	if !fromDisk {
		// Write-through, best effort: the compile is served from memory
		// whether or not persistence succeeds.
		c.diskPut(key, f.sched, f.deg)
	}

	c.mu.Lock()
	delete(c.flights, key)
	c.entries[key] = c.lru.PushFront(&entry{key: key, sched: f.sched, deg: f.deg})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
	c.mu.Unlock()
	settled = true
	return sched, deg, nil
}

// isContextErr reports whether err is a cancellation or deadline: the
// leader's own circumstance, not a property of the key.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fingerprint returns the digest of m's fingerprint, memoized by
// pointer (see the fps field). The map is bounded: a process juggling
// many machine values just recomputes.
func (c *Cache) fingerprint(m *machine.Machine) [sha256.Size]byte {
	c.mu.Lock()
	fp, ok := c.fps[m]
	c.mu.Unlock()
	if ok {
		return fp
	}
	fp = sha256.Sum256([]byte(m.Fingerprint()))
	c.mu.Lock()
	if len(c.fps) >= 64 {
		clear(c.fps)
	}
	c.fps[m] = fp
	c.mu.Unlock()
	return fp
}

// copySchedule deep-copies s, rebinding its loop and machine pointers to
// the caller's (key equality guarantees they are interchangeable for
// scheduling purposes).
func copySchedule(s *core.Schedule, l *ir.Loop, m *machine.Machine) *core.Schedule {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Loop = l
	cp.Machine = m
	cp.Times = append([]int(nil), s.Times...)
	cp.Alts = append([]int(nil), s.Alts...)
	cp.Delays = append([]int(nil), s.Delays...)
	return &cp
}

// copyDegradation deep-copies a degradation report (the failure errors
// themselves are shared; they are never mutated).
func copyDegradation(d *core.Degradation) *core.Degradation {
	if d == nil {
		return nil
	}
	cp := *d
	cp.Failures = append([]core.StageFailure(nil), d.Failures...)
	return &cp
}
