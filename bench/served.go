package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
	"modsched/internal/server"
)

// The served traffic mix. bench/README.md records how each value was
// chosen on a two-core machine.
const (
	servedPool = 6000 // distinct loops a request can name
	// servedMaxOps clamps pool loop sizes, shrinking the 18.6% of loops
	// that have more than 40 operations. Without it, compiles of the
	// largest loops held both processors long enough for the generator to
	// run more than servedLateMS late at p99 (bench/README.md, Departures).
	servedMaxOps = 40
	// Rank k is drawn in proportion to (servedZipfV+k)^-servedZipfS. The
	// offset flattens the head, so the loops in use outgrow both caches:
	// with offset 1 the 2048 loops they hold would get 93% of draws, with
	// offset 100 they get 78%.
	servedZipfS     = 1.1
	servedZipfV     = 100
	servedNearMiss  = 0.10 // pool items that are one-immediate edits of another
	servedInline    = 0.10 // pool items that target superscalar4 via machine_source
	servedBatchFrac = 0.20 // requests that are /compile/batch of 2-5 loops
	servedReplicas  = 2
	servedCacheCap  = 1024 // per replica; the pool is larger than both together
	servedConns     = 2    // open-loop client connections, so at most two requests in flight
	// servedNominal is the open-loop rate, low enough that the generator,
	// which shares the servers' processors, stays punctual.
	servedNominal = 100
	// servedWarm is how many of the most popular pool items set-up
	// compiles; they are also the items the quality metrics cover.
	servedWarm   = 3000
	servedLateMS = 5 // the run is invalid if the generator ran later than this at p99
	// itemHeader carries a request's item span id to the front in traced
	// runs.
	itemHeader = "X-Bench-Item"
)

// poolItem is one compile request the traffic can name, encoded once.
type poolItem struct {
	body []byte // CompileRequest JSON; also the loop's entry inside a batch body
	key  [32]byte
}

// request is one HTTP request of the seeded sequence.
type request struct {
	path  string
	items []int
	body  []byte
}

// requestSeq is the seeded request sequence: request k is the same for a
// given seed no matter how many requests were drawn before it or by which
// connection.
type requestSeq struct {
	pool []poolItem
	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf
	reqs []*request
}

func newRequestSeq(pool []poolItem, seed int64) *requestSeq {
	rng := rand.New(rand.NewSource(seed))
	return &requestSeq{pool: pool, rng: rng, zipf: rand.NewZipf(rng, servedZipfS, servedZipfV, uint64(len(pool)-1))}
}

// get returns request k, drawing the sequence up to it.
func (s *requestSeq) get(k int) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= k {
		s.reqs = append(s.reqs, s.draw())
	}
	return s.reqs[k]
}

func (s *requestSeq) draw() *request {
	if s.rng.Float64() >= servedBatchFrac {
		i := int(s.zipf.Uint64())
		return &request{path: "/compile", items: []int{i}, body: s.pool[i].body}
	}
	n := 2 + s.rng.Intn(4)
	r := &request{path: "/compile/batch"}
	var b bytes.Buffer
	b.WriteString(`{"loops":[`)
	for j := 0; j < n; j++ {
		i := int(s.zipf.Uint64())
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(s.pool[i].body)
		r.items = append(r.items, i)
	}
	b.WriteString(`]}`)
	r.body = b.Bytes()
	return r
}

// buildPool builds the fixed request pool: servedPool structurally
// distinct loops of loopgen's corpus shape, clamped to servedMaxOps
// operations, at the default seed (the
// corpus repeats many tiny initialization loops, which would share cache
// entries), with a share of near-miss edits and a share targeting the
// superscalar4 machine inline. The pool does not depend on the bench seed,
// so which loops are popular is the same in every run; the seed varies the
// request sequence.
func buildPool() ([]poolItem, error) {
	m := machine.Cydra5()
	inline, err := os.ReadFile(repoPath("testdata/machines/superscalar4.mach"))
	if err != nil {
		return nil, err
	}
	cfg := loopgen.DefaultConfig()
	cfg.N = 4 * servedPool
	cfg.MaxOps = servedMaxOps
	opts := core.DefaultOptions()
	seen := map[string]bool{}
	var loops []*ir.Loop
	errFull := errors.New("pool full")
	err = loopgen.Stream(cfg, m, func(_ int, l *ir.Loop) error {
		if k := schedcache.Key(l, m, opts); !seen[k] {
			seen[k] = true
			loops = append(loops, l)
		}
		if len(loops) == servedPool {
			return errFull
		}
		return nil
	})
	if err != errFull {
		return nil, fmt.Errorf("served pool: %d distinct loops: %v", len(loops), err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := make([]poolItem, len(loops))
	for k, l := range loops {
		if k > 0 && rng.Float64() < servedNearMiss {
			if e := nearMiss(loops[rng.Intn(k)], rng); e != nil {
				l = e
			}
		}
		req := server.CompileRequest{Source: looplang.Print(l)}
		if rng.Float64() < servedInline {
			req.MachineSource = string(inline)
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		pool[k] = poolItem{body: body, key: sha256.Sum256(body)}
	}
	return pool, nil
}

// nearMiss copies l with one immediate operand changed, or returns nil
// when l has none.
func nearMiss(l *ir.Loop, rng *rand.Rand) *ir.Loop {
	var withImm []int
	for i, op := range l.Ops {
		if op.Imm != 0 {
			withImm = append(withImm, i)
		}
	}
	if len(withImm) == 0 {
		return nil
	}
	c := l.Clone()
	c.Ops[withImm[rng.Intn(len(withImm))]].Imm += 8
	return c
}

// outcome is what the client received for one request.
type outcome struct {
	status int
	digest [32]byte
	err    error
}

// servedRunner is the served workload after set-up.
type servedRunner struct {
	seq     *requestSeq
	hops    *hopRecorder
	cl      *cluster
	clients []*http.Client
	next    int // index of the next unsent request in the sequence

	mu       sync.Mutex
	outcomes map[int]outcome // by request index
	// Traced-phase bookkeeping: the tracer, whether each item (by span id)
	// is a single loop nobody had asked for before, and the loops asked for.
	tr    *tracer
	first map[int64]bool
	seen  map[[32]byte]bool
}

func setupServed(seed int64) (runner, error) {
	pool, err := buildPool()
	if err != nil {
		return nil, err
	}
	r := &servedRunner{
		seq:      newRequestSeq(pool, seed),
		hops:     &hopRecorder{keys: map[int64][][32]byte{}},
		outcomes: map[int]outcome{},
		first:    map[int64]bool{},
		seen:     map[[32]byte]bool{},
	}
	if r.cl, err = startCluster(r.hops); err != nil {
		return nil, err
	}
	for i := 0; i < servedConns; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	if err := r.warmUp(pool); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warmUp compiles the servedWarm most popular pool items, least popular
// first, in batches over both connections: it fills both replica caches
// past capacity, so the timed phases start from the steady state where the
// popular loops are cached and every miss evicts.
func (r *servedRunner) warmUp(pool []poolItem) error {
	const perBatch = 50
	var batches [][]byte
	for hi := servedWarm; hi > 0; hi -= perBatch {
		var b bytes.Buffer
		b.WriteString(`{"loops":[`)
		for i := hi - 1; i >= max(hi-perBatch, 0); i-- {
			if i != hi-1 {
				b.WriteByte(',')
			}
			b.Write(pool[i].body)
		}
		b.WriteString(`]}`)
		batches = append(batches, b.Bytes())
	}
	errs := make([]error, servedConns)
	var wg sync.WaitGroup
	for c := 0; c < servedConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(batches); i += servedConns {
				st, _, err := r.post(c, "/compile/batch", batches[i], 0)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("status %d", st)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up batch %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// post sends one body on connection conn and returns the status and the
// body's digest.
func (r *servedRunner) post(conn int, path string, body []byte, item int64) (int, [32]byte, error) {
	req, err := http.NewRequest(http.MethodPost, r.cl.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, [32]byte{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if item != 0 {
		req.Header.Set(itemHeader, strconv.FormatInt(item, 10))
	}
	resp, err := r.clients[conn].Do(req)
	if err != nil {
		return 0, [32]byte{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, [32]byte{}, err
	}
	return resp.StatusCode, sha256.Sum256(data), nil
}

// send is the load generator's sender: request k, due at due.
func (r *servedRunner) send(conn, k int, due time.Time) error {
	q := r.seq.get(k)
	tr := r.tr
	var item int64
	sendAt := time.Now()
	if tr != nil {
		item = tr.newID()
		first := true
		r.mu.Lock()
		for _, i := range q.items {
			key := r.seq.pool[i].key
			first = first && !r.seen[key]
			r.seen[key] = true
		}
		r.first[item] = first && len(q.items) == 1
		r.mu.Unlock()
		if sendAt.After(due) {
			tr.add(span{ID: tr.newID(), Parent: item, Item: item, Name: "loadgen.Queue", Start: due.UnixNano(), End: sendAt.UnixNano()})
		}
	}
	st, digest, err := r.post(conn, q.path, q.body, item)
	if tr != nil {
		tr.add(span{ID: item, Item: item, Name: "item", Start: due.UnixNano(), End: time.Now().UnixNano()})
	}
	r.mu.Lock()
	r.outcomes[k] = outcome{status: st, digest: digest, err: err}
	r.mu.Unlock()
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d", st)
	}
	return err
}

// phase runs one open-loop phase at rate for d, continuing the request
// sequence after every request the last phase had due, sent or not, so
// where each phase starts does not depend on timing.
func (r *servedRunner) phase(rate float64, d time.Duration) loadResult {
	res := openLoop{rate: rate, dur: d, conns: servedConns, first: r.next, send: r.send}.run()
	r.next += res.due
	return res
}

// run measures latency at the nominal rate, then throughput.
func (r *servedRunner) run(rep *report, d time.Duration, traced bool) *tracer {
	if traced {
		return r.runTraced(rep, d)
	}
	setNominal(rep, r.phase(servedNominal, d*3/5))
	setThroughput(rep, r.closedLoop(d*2/5))
	r.verify(rep)
	return nil
}

// closedWindows is how many equal windows the closed-loop phase is cut
// into; its throughput is their median, so a slow second on a shared
// machine moves one window rather than the result.
const closedWindows = 8

// closedLoop sends requests from one connection for d, each as soon as the
// last completes, like the other workloads' single worker, and returns the
// requests completed per second in each of closedWindows windows.
func (r *servedRunner) closedLoop(d time.Duration) []float64 {
	window := d / closedWindows
	var counts [closedWindows]int
	start := time.Now()
	for time.Since(start) < d {
		err := r.send(0, r.next, time.Now())
		r.next++
		if w := int(time.Since(start) / window); err == nil && w < closedWindows {
			counts[w]++
		}
	}
	rates := make([]float64, closedWindows)
	for i, n := range counts {
		rates[i] = float64(n) / window.Seconds()
	}
	return rates
}

// setNominal records the latency metrics of the nominal-rate phase and
// applies its validity guards. Failed and unsent requests are in res.lat
// as +Inf, so they push the percentiles up rather than drop out.
func setNominal(rep *report, res loadResult) {
	setPercentiles(rep, res.lat)
	guardLoad(rep, "nominal", res)
	rep.detail("nominal_rps", servedNominal, "1/s")
	rep.detail("loadgen.backlog_end", float64(res.backlogEnd), "count")
	rep.detail("loadgen.backlog_max", float64(res.backlogMax), "count")
	late := sortedCopy(res.late)
	if v, err := percentile(late, 0.99); err != nil {
		rep.invalidf("served: generator lateness p99: %v", err)
	} else {
		rep.detail("loadgen.late_p99_ms", v, "ms")
		if v > servedLateMS {
			rep.invalidf("served: generator ran %.2f ms late at p99 (limit %d ms)", v, servedLateMS)
		}
	}
}

// guardLoad fails the run when an open-loop phase had failed or unsent
// requests. No outcome records an unsent request, so it is counted here as
// attempted and failed.
func guardLoad(rep *report, phase string, res loadResult) {
	rep.Attempted += int64(res.unsent)
	rep.Failed += int64(res.unsent)
	if res.failed+res.unsent > 0 {
		rep.invalidf("served %s phase: %d requests failed, %d were never sent", phase, res.failed, res.unsent)
	}
}

// runTraced runs the untraced nominal phase as run does, then a traced
// nominal phase in the time run gives the closed loop.
func (r *servedRunner) runTraced(rep *report, d time.Duration) *tracer {
	untraced := r.phase(servedNominal, d*3/5)
	setNominal(rep, untraced)
	// A loop counts as asked for before if set-up warmed it or an earlier
	// request named it.
	for i := 0; i < servedWarm; i++ {
		r.seen[r.seq.pool[i].key] = true
	}
	for k := 0; k < r.next; k++ {
		for _, i := range r.seq.get(k).items {
			r.seen[r.seq.pool[i].key] = true
		}
	}
	before := r.cl.counters()
	tr := newTracer()
	r.tr = tr
	r.hops.tr.Store(tr)
	rt0 := readRuntime()
	traced := r.phase(servedNominal, d*2/5)
	guardLoad(rep, "traced", traced)
	rt := readRuntime().sub(rt0)
	r.hops.tr.Store(nil)
	r.tr = nil
	after := r.cl.counters()
	tr.spans = r.hops.link(tr.snapshot())

	zeroLayers(rep)
	p := profile(tr.spans)
	for _, l := range []string{"server", "proxy", "loadgen", "harness"} {
		rep.set(l+".busy_pct", p.busyPct(l))
	}
	for name, v := range after {
		rep.set(name, v-before[name])
	}
	hits := after["schedcache.hits"] - before["schedcache.hits"]
	misses := after["schedcache.misses"] - before["schedcache.misses"]
	if hits+misses > 0 {
		rep.set("schedcache.hit_ratio", hits/(hits+misses))
	}
	rep.detail("schedcache.lookups", hits+misses, "count")
	rep.set("loadgen.backlog_max", float64(traced.backlogMax))
	setRuntime(rep, rt, int64(traced.sent))
	if a, b := median(untraced.lat), median(traced.lat); a > 0 && !math.IsInf(a+b, 1) {
		rep.set("trace.overhead_pct", 100*(b/a-1))
	}
	r.hopDetail(rep, tr.spans)
	rep.LayerTable = p.table()
	r.verify(rep)
	return tr
}

// hopDetail records per-hop latencies: replica handler time (all, first
// request for a loop, repeats) and the front's own share of each request.
func (r *servedRunner) hopDetail(rep *report, spans []span) {
	st := selfTimes(spans)
	var all, firsts, repeats, hop []float64
	for _, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "server.Handler":
			all = append(all, ms)
			if f, ok := r.first[s.Item]; ok {
				if f {
					firsts = append(firsts, ms)
				} else {
					repeats = append(repeats, ms)
				}
			}
		case "proxy.Handler":
			hop = append(hop, float64(st[s.ID])/1e6)
		}
	}
	for _, x := range []struct {
		name string
		lat  []float64
	}{{"server", all}, {"server.first", firsts}, {"server.repeat", repeats}, {"proxy.hop_self", hop}} {
		s := sortedCopy(x.lat)
		for _, q := range []float64{0.5, 0.99} {
			if v, err := percentile(s, q); err == nil {
				rep.detail(fmt.Sprintf("%s_p%g_ms", x.name, 100*q), v, "ms")
			}
		}
	}
}

// verify compares every response received with a local compile of the
// same request on a separate, HTTP-free server, and fails the run if any
// request failed. The exact quality metrics come from local compiles of
// the servedWarm most popular pool items, so they depend neither on the
// seed's request sequence nor on timing.
func (r *servedRunner) verify(rep *report) {
	oracle := server.New(server.Config{CacheCapacity: 2 * servedPool})
	type expect struct {
		status int
		single []byte // the /compile body, newline included
		item   []byte // the batch element
		res    *server.CompileResponse
	}
	memo := map[int]*expect{}
	local := func(i int) *expect {
		if e := memo[i]; e != nil {
			return e
		}
		var req server.CompileRequest
		if err := json.Unmarshal(r.seq.pool[i].body, &req); err != nil {
			panic(err) // the pool was encoded by buildPool
		}
		it := oracle.CompileLocal(context.Background(), &req)
		e := &expect{status: it.Status, res: it.Result}
		var err error
		if it.Error != nil {
			e.single, err = json.Marshal(it.Error)
		} else {
			e.single, err = json.Marshal(it.Result)
		}
		if err == nil {
			e.single = append(e.single, '\n')
			e.item, err = json.Marshal(&it)
		}
		if err != nil {
			panic(err) // marshalling the server's own types cannot fail
		}
		memo[i] = e
		return e
	}
	r.mu.Lock()
	keys := make([]int, 0, len(r.outcomes))
	for k := range r.outcomes {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Ints(keys)
	for _, k := range keys {
		o := r.outcomes[k]
		q := r.seq.get(k)
		rep.Attempted++
		if o.err != nil || o.status != http.StatusOK {
			rep.Failed++
			continue
		}
		var want []byte
		status := http.StatusOK
		if q.path == "/compile" {
			e := local(q.items[0])
			status, want = e.status, e.single
		} else {
			var b bytes.Buffer
			b.WriteString(`{"results":[`)
			for j, i := range q.items {
				if j > 0 {
					b.WriteByte(',')
				}
				b.Write(local(i).item)
			}
			b.WriteString("]}\n")
			want = b.Bytes()
		}
		if status != o.status || sha256.Sum256(want) != o.digest {
			rep.Wrong++
		}
	}
	rep.detail("loops_verified", float64(len(memo)), "count")
	if rep.Attempted > 0 {
		rep.detail("failed_frac", float64(rep.Failed)/float64(rep.Attempted), "ratio")
	}
	if rep.Failed > 0 {
		rep.invalidf("served: %d of %d requests failed", rep.Failed, rep.Attempted)
	}
	if rep.Wrong > 0 {
		rep.invalidf("served: %d responses differ from a local compile", rep.Wrong)
	}

	var loops, atMII, deltaII, cycles, bound int64
	for i := 0; i < min(servedWarm, len(r.seq.pool)); i++ {
		res := local(i).res
		if res == nil {
			continue
		}
		loops++
		if res.II == res.MII {
			atMII++
		}
		deltaII += int64(res.II - res.MII)
		cycles += (simTrips + int64(res.Stages) - 1) * int64(res.II)
		bound += simTrips * int64(res.MII)
	}
	rep.set("ii_eq_mii_pct", pct(atMII, loops))
	rep.set("cycles_vs_mii", ratio(cycles, bound))
	rep.set("delta_ii_per_loop", ratio(deltaII, loops))
	rep.detail("quality_loops", float64(loops), "count")
}

func (r *servedRunner) peakRSSMB() float64 { return peakRSSMB() }

func (r *servedRunner) close() {
	r.cl.close()
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}
