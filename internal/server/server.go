package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"modsched/internal/diskcache"
	"modsched/internal/experiments"
	"modsched/internal/jobs"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

// Config tunes the service. Zero fields take the defaults documented on
// each; New never mutates the caller's value.
type Config struct {
	// CacheCapacity bounds the process-wide compile cache
	// (schedcache.DefaultCapacity when 0).
	CacheCapacity int
	// MaxInFlight bounds concurrently executing requests
	// (2*GOMAXPROCS when 0). Compiles are CPU-bound, so running many
	// more than GOMAXPROCS at once only inflates tail latency.
	MaxInFlight int
	// QueueDepth bounds the waiting room (4*MaxInFlight when 0).
	QueueDepth int
	// QueueWait bounds how long a request may sit in the waiting room
	// before being shed (5s when 0).
	QueueWait time.Duration
	// CompileTimeout is the per-compile deadline ceiling and default
	// (30s when 0). A request's timeout_ms can only shorten it.
	CompileTimeout time.Duration
	// BatchWorkers bounds the fan-out of one batch request across the
	// worker pool (GOMAXPROCS when 0). Responses are byte-identical for
	// any value.
	BatchWorkers int
	// MaxBatch bounds loops per batch request (256 when 0).
	MaxBatch int
	// MaxBodyBytes bounds a request body (8 MiB when 0).
	MaxBodyBytes int64
}

func (c *Config) applyDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.CompileTimeout <= 0 {
		c.CompileTimeout = 30 * time.Second
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = experiments.DefaultWorkers()
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// Server is the compile service: one process-wide cache, one admission
// controller, one metrics registry. It is an http.Handler factory; the
// listener and process lifecycle belong to cmd/mschedd.
type Server struct {
	cfg      Config
	cache    *schedcache.Cache
	metrics  *metrics
	adm      *admission
	machines map[string]*machine.Machine
	draining atomic.Bool
	// disk is the persistent cache tier (EnablePersistentCache); nil
	// when the cache is memory-only.
	disk *diskcache.Store
	// jobs is the async job subsystem (EnableJobs); nil when the jobs
	// API is not mounted. jobsWaitCap bounds one long poll.
	jobs        *jobs.Manager
	jobsWaitCap time.Duration

	// testCompileHook, when set by a test, runs at the start of every
	// loop compile while its admission slot is held. It lets tests hold
	// requests in flight deterministically.
	testCompileHook func(*CompileRequest)
}

// New builds a Server from cfg (zero value is fully usable).
func New(cfg Config) *Server {
	cfg.applyDefaults()
	return &Server{
		cfg:     cfg,
		cache:   schedcache.New(cfg.CacheCapacity),
		metrics: newMetrics(),
		adm:     newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait),
		machines: map[string]*machine.Machine{
			"cydra5":  machine.Cydra5(),
			"generic": machine.Generic(machine.DefaultUnitConfig()),
			"tiny":    machine.Tiny(),
		},
	}
}

// CacheStats exposes the compile cache counters (the smoke test
// reconciles them against /metrics).
func (s *Server) CacheStats() schedcache.Stats { return s.cache.Stats() }

// EnablePersistentCache mounts a crash-safe disk tier under the compile
// cache: compiles write through to dir, restarts serve warm, and corrupt
// or torn entries are evicted and recompiled, never served
// (internal/diskcache). Call before serving traffic. Opening scans dir
// and quarantines anything malformed; the scan's findings show up on
// /metrics.
func (s *Server) EnablePersistentCache(dir string) error {
	d, err := diskcache.Open(dir)
	if err != nil {
		return err
	}
	s.disk = d
	s.cache.AttachDisk(d)
	return nil
}

// DiskCacheStats exposes the persistent tier's counters (zero when
// disabled).
func (s *Server) DiskCacheStats() diskcache.Stats {
	if s.disk == nil {
		return diskcache.Stats{}
	}
	return s.disk.Stats()
}

// CompileLocal runs one request through the full compile pipeline
// in-process, bypassing HTTP and admission control. Load generators and
// the chaos harness use it to produce the reference outcome a served
// response must be byte-identical to.
func (s *Server) CompileLocal(ctx context.Context, req *CompileRequest) BatchItem {
	return s.compileItem(ctx, req)
}

// StartDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing, and new compile requests and job
// submissions are refused. In-flight requests are unaffected —
// finishing them is the caller's job via http.Server.Shutdown — and job
// workers stop picking up queued work (queued jobs stay journaled for
// the next start; CloseJobs waits out the running ones).
func (s *Server) StartDrain() {
	s.draining.Store(true)
	if s.jobs != nil {
		s.jobs.StartDrain()
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// MetricsText renders the current /metrics exposition (the daemon
// flushes this on shutdown).
func (s *Server) MetricsText() string {
	var b strings.Builder
	s.metrics.writePrometheus(&b, s.gauges())
	return b.String()
}

// retryAfterHint is the single EWMA-backed Retry-After estimate behind
// every refusal this server writes — drain 503s, shed 429s, and job
// queue-full 429s all share it. Draining callers pass queued=0: the
// backlog dies with the process, so the peer should fail over now and
// come back after roughly one compile's worth of time (the EWMA floor
// keeps this at the old constant 1s under normal latency).
func (s *Server) retryAfterHint(queued int) int {
	return s.metrics.retryAfterSec(queued, s.adm.capacity())
}

// refuse writes one typed refusal carrying its Retry-After hint in both
// the header and the body.
func (s *Server) refuse(w http.ResponseWriter, status int, kind, msg string, retrySec int) {
	w.Header().Set("Retry-After", strconv.Itoa(retrySec))
	writeJSON(w, status, &ErrorResponse{Kind: kind, Error: msg, RetryAfterSec: retrySec})
}

func (s *Server) gauges() gauges {
	g := gauges{
		inFlight:   s.adm.inFlight(),
		queued:     s.adm.queued(),
		draining:   s.draining.Load(),
		cacheStats: s.cache.Stats(),
		cacheLen:   s.cache.Len(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		g.diskStats = &ds
	}
	if s.jobs != nil {
		jc := s.jobs.Counters()
		js := s.jobs.JournalStats()
		g.jobsCounters = &jc
		g.jobsJournal = &js
	}
	return g
}

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/compile/batch", s.handleBatch)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /jobs/{id}/wait", s.handleJobWait)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON writes one JSON body with the given status. Encoding into a
// buffer first keeps a marshalling failure from producing a half-written
// 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// admit runs the shared front half of both compile endpoints: drain
// check, admission. It returns a non-nil release func on success;
// otherwise it has already written the response and recorded the
// request metric.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time) func() {
	if s.draining.Load() {
		// Retry-After tells proxies and retrying clients the refusal is
		// momentary — fail over now, come back shortly — so a rolling
		// drain surfaces as clean 503s, never connection errors.
		status := http.StatusServiceUnavailable
		s.refuse(w, status, KindDraining, "server is draining", s.retryAfterHint(0))
		s.metrics.countRequest(endpoint, status, time.Since(start).Seconds())
		return nil
	}
	if err := s.adm.acquire(r.Context()); err != nil {
		var status int
		if errors.Is(err, errShed) {
			status = http.StatusTooManyRequests
			s.refuse(w, status, KindOverloaded, "server overloaded; retry later", s.retryAfterHint(s.adm.queued()))
			s.metrics.countShed()
		} else {
			// The client went away while queued.
			status = 499
			writeJSON(w, status, &ErrorResponse{Kind: KindDeadline, Error: err.Error()})
		}
		s.metrics.countRequest(endpoint, status, time.Since(start).Seconds())
		return nil
	}
	return s.adm.release
}

// decode parses one JSON request body, enforcing the body limit and
// method. On failure it writes the response and returns false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time, v any) bool {
	fail := func(status int, kind, msg string) {
		writeJSON(w, status, &ErrorResponse{Kind: kind, Error: msg})
		s.metrics.countRequest(endpoint, status, time.Since(start).Seconds())
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, KindBadRequest, "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		fail(http.StatusBadRequest, KindBadRequest, "malformed request body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req CompileRequest
	if !s.decode(w, r, "compile", start, &req) {
		return
	}
	release := s.admit(w, r, "compile", start)
	if release == nil {
		return
	}
	defer release()

	item := s.compileItem(r.Context(), &req)
	if item.Error != nil {
		writeJSON(w, item.Status, item.Error)
	} else {
		writeJSON(w, item.Status, item.Result)
	}
	s.metrics.countRequest("compile", item.Status, time.Since(start).Seconds())
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	if !s.decode(w, r, "batch", start, &req) {
		return
	}
	if len(req.Loops) == 0 || len(req.Loops) > s.cfg.MaxBatch {
		status := http.StatusBadRequest
		writeJSON(w, status, &ErrorResponse{
			Kind:  KindBadRequest,
			Error: fmt.Sprintf("batch must carry between 1 and %d loops, got %d", s.cfg.MaxBatch, len(req.Loops)),
		})
		s.metrics.countRequest("batch", status, time.Since(start).Seconds())
		return
	}
	release := s.admit(w, r, "batch", start)
	if release == nil {
		return
	}
	defer release()

	// Fan the loops across the worker pool. Every item writes only its
	// own input-order slot and fn never returns an error, so the response
	// is byte-identical no matter how many workers run or how they
	// interleave (the PR 2 determinism contract).
	items := make([]BatchItem, len(req.Loops))
	workers := s.cfg.BatchWorkers
	_ = experiments.ParallelFor(r.Context(), len(items), workers, func(ctx context.Context, i int) error {
		items[i] = s.compileItem(ctx, &req.Loops[i])
		return nil
	})
	writeJSON(w, http.StatusOK, &BatchResponse{Results: items})
	s.metrics.countRequest("batch", http.StatusOK, time.Since(start).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	s.metrics.writePrometheus(&b, s.gauges())
	fmt.Fprint(w, b.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
