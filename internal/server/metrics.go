package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"modsched/internal/core"
	"modsched/internal/diskcache"
	"modsched/internal/jobs"
	"modsched/internal/schedcache"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram. Cache hits land in the sub-millisecond buckets, cold
// compiles of corpus-sized loops in the millisecond range, and the tail
// buckets catch deadline-bounded stragglers.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics is the daemon's instrumentation: request counts by endpoint
// and status, per-loop outcome counts, scheduler-effort counters, the
// request-latency histogram, and an EWMA of compile latency that feeds
// the Retry-After hint. One mutex guards everything — the counters cost
// nanoseconds against compiles costing microseconds to milliseconds, so
// striping would buy nothing.
type metrics struct {
	mu       sync.Mutex
	requests map[[2]string]int64 // {endpoint, status} -> count
	loops    map[string]int64    // outcome kind -> count
	shed     int64

	bucketCounts []int64
	latencySum   float64
	latencyCount int64

	iiAttempts  int64
	schedSteps  int64
	unschedules int64

	// ewmaSeconds tracks recent request latency (alpha 0.2); zero until
	// the first observation.
	ewmaSeconds float64
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[[2]string]int64),
		loops:        make(map[string]int64),
		bucketCounts: make([]int64, len(latencyBuckets)+1),
	}
}

// countRequest records one HTTP request's endpoint, status, and latency.
func (m *metrics) countRequest(endpoint string, status int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[[2]string{endpoint, fmt.Sprint(status)}]++
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	m.bucketCounts[i]++
	m.latencySum += seconds
	m.latencyCount++
	const alpha = 0.2
	if m.ewmaSeconds == 0 {
		m.ewmaSeconds = seconds
	} else {
		m.ewmaSeconds = alpha*seconds + (1-alpha)*m.ewmaSeconds
	}
}

// countLoop records one loop compile's outcome ("ok", "degraded", or an
// error kind).
func (m *metrics) countLoop(outcome string) {
	m.mu.Lock()
	m.loops[outcome]++
	m.mu.Unlock()
}

// countShed records one load-shed request (also counted in requests
// under status 429).
func (m *metrics) countShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// countEffort accumulates the II-search counters of a served schedule.
// Cache hits carry the original search's counters, so these totals
// measure the scheduling effort represented by the responses — divide
// by the cache hit rate for the effort actually spent.
func (m *metrics) countEffort(c *core.Counters) {
	m.mu.Lock()
	m.iiAttempts += c.IIAttempts
	m.schedSteps += c.SchedSteps
	m.unschedules += c.Unschedules
	m.mu.Unlock()
}

// retryAfterSec estimates, from the latency EWMA and the queue ahead,
// how long a shed client should wait before retrying: the time for the
// backlog to drain through the slots, clamped to [1, 60] seconds.
func (m *metrics) retryAfterSec(queued, capacity int) int {
	m.mu.Lock()
	ewma := m.ewmaSeconds
	m.mu.Unlock()
	if capacity < 1 {
		capacity = 1
	}
	est := ewma * float64(queued+1) / float64(capacity)
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// gauges carries the live values rendered alongside the counters.
type gauges struct {
	inFlight   int
	queued     int
	draining   bool
	cacheStats schedcache.Stats
	cacheLen   int
	// diskStats is non-nil when the persistent cache tier is enabled;
	// its series are emitted only then, so a memory-only daemon's
	// exposition is unchanged.
	diskStats *diskcache.Stats
	// jobsCounters/jobsJournal are non-nil when the async jobs API is
	// enabled; the mschedd_jobs_* family appears only then. Because they
	// ride the gauges value, the final-metrics-on-drain dump carries them
	// like every other series.
	jobsCounters *jobs.Counters
	jobsJournal  *jobs.JournalStats
}

// writePrometheus renders the Prometheus text exposition format
// (version 0.0.4). Series within a family are sorted so the output is
// deterministic — the smoke test and the soak harness diff it.
func (m *metrics) writePrometheus(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprint(w, "# HELP mschedd_requests_total HTTP requests by endpoint and status.\n# TYPE mschedd_requests_total counter\n")
	reqKeys := make([][2]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i][0] != reqKeys[j][0] {
			return reqKeys[i][0] < reqKeys[j][0]
		}
		return reqKeys[i][1] < reqKeys[j][1]
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "mschedd_requests_total{endpoint=%q,code=%q} %d\n", k[0], k[1], m.requests[k])
	}

	fmt.Fprint(w, "# HELP mschedd_loops_total Loop compiles by outcome.\n# TYPE mschedd_loops_total counter\n")
	loopKeys := make([]string, 0, len(m.loops))
	for k := range m.loops {
		loopKeys = append(loopKeys, k)
	}
	sort.Strings(loopKeys)
	for _, k := range loopKeys {
		fmt.Fprintf(w, "mschedd_loops_total{outcome=%q} %d\n", k, m.loops[k])
	}

	fmt.Fprint(w, "# HELP mschedd_shed_total Requests shed by admission control.\n# TYPE mschedd_shed_total counter\n")
	fmt.Fprintf(w, "mschedd_shed_total %d\n", m.shed)

	fmt.Fprint(w, "# HELP mschedd_in_flight Requests currently executing.\n# TYPE mschedd_in_flight gauge\n")
	fmt.Fprintf(w, "mschedd_in_flight %d\n", g.inFlight)
	fmt.Fprint(w, "# HELP mschedd_queue_depth Requests waiting for an execution slot.\n# TYPE mschedd_queue_depth gauge\n")
	fmt.Fprintf(w, "mschedd_queue_depth %d\n", g.queued)
	fmt.Fprint(w, "# HELP mschedd_draining Whether the server is draining (1) or serving (0).\n# TYPE mschedd_draining gauge\n")
	if g.draining {
		fmt.Fprint(w, "mschedd_draining 1\n")
	} else {
		fmt.Fprint(w, "mschedd_draining 0\n")
	}

	fmt.Fprint(w, "# HELP mschedd_cache_hits_total Compile cache hits.\n# TYPE mschedd_cache_hits_total counter\n")
	fmt.Fprintf(w, "mschedd_cache_hits_total %d\n", g.cacheStats.Hits)
	fmt.Fprint(w, "# HELP mschedd_cache_misses_total Compile cache misses (actual compiles).\n# TYPE mschedd_cache_misses_total counter\n")
	fmt.Fprintf(w, "mschedd_cache_misses_total %d\n", g.cacheStats.Misses)
	fmt.Fprint(w, "# HELP mschedd_cache_inflight_joins_total Compiles coalesced onto an in-progress identical compile.\n# TYPE mschedd_cache_inflight_joins_total counter\n")
	fmt.Fprintf(w, "mschedd_cache_inflight_joins_total %d\n", g.cacheStats.Inflight)
	fmt.Fprint(w, "# HELP mschedd_cache_evictions_total Cache entries evicted by LRU.\n# TYPE mschedd_cache_evictions_total counter\n")
	fmt.Fprintf(w, "mschedd_cache_evictions_total %d\n", g.cacheStats.Evictions)
	fmt.Fprint(w, "# HELP mschedd_cache_entries Entries currently cached.\n# TYPE mschedd_cache_entries gauge\n")
	fmt.Fprintf(w, "mschedd_cache_entries %d\n", g.cacheLen)

	if d := g.diskStats; d != nil {
		fmt.Fprint(w, "# HELP mschedd_diskcache_hits_total Persistent-cache entries served (verified, no recompile).\n# TYPE mschedd_diskcache_hits_total counter\n")
		fmt.Fprintf(w, "mschedd_diskcache_hits_total %d\n", d.Hits)
		fmt.Fprint(w, "# HELP mschedd_diskcache_misses_total Persistent-cache lookups that found no entry.\n# TYPE mschedd_diskcache_misses_total counter\n")
		fmt.Fprintf(w, "mschedd_diskcache_misses_total %d\n", d.Misses)
		fmt.Fprint(w, "# HELP mschedd_diskcache_writes_total Entries written through to disk.\n# TYPE mschedd_diskcache_writes_total counter\n")
		fmt.Fprintf(w, "mschedd_diskcache_writes_total %d\n", d.Writes)
		fmt.Fprint(w, "# HELP mschedd_diskcache_write_errors_total Failed entry writes (persistence is best effort).\n# TYPE mschedd_diskcache_write_errors_total counter\n")
		fmt.Fprintf(w, "mschedd_diskcache_write_errors_total %d\n", d.WriteErrors)
		fmt.Fprint(w, "# HELP mschedd_diskcache_corrupt_evicted_total Corrupt or torn entries deleted instead of served.\n# TYPE mschedd_diskcache_corrupt_evicted_total counter\n")
		fmt.Fprintf(w, "mschedd_diskcache_corrupt_evicted_total %d\n", d.Corrupt)
		fmt.Fprint(w, "# HELP mschedd_diskcache_quarantined_total Files the startup scan moved to quarantine.\n# TYPE mschedd_diskcache_quarantined_total counter\n")
		fmt.Fprintf(w, "mschedd_diskcache_quarantined_total %d\n", d.Quarantined)
		fmt.Fprint(w, "# HELP mschedd_diskcache_entries Entries on disk now.\n# TYPE mschedd_diskcache_entries gauge\n")
		fmt.Fprintf(w, "mschedd_diskcache_entries %d\n", d.Entries)
	}

	if jc := g.jobsCounters; jc != nil {
		fmt.Fprint(w, "# HELP mschedd_jobs_submitted_total Jobs admitted and journaled.\n# TYPE mschedd_jobs_submitted_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_submitted_total %d\n", jc.Submitted)
		fmt.Fprint(w, "# HELP mschedd_jobs_deduped_total Submissions answered by an existing job with the same id.\n# TYPE mschedd_jobs_deduped_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_deduped_total %d\n", jc.Deduped)
		fmt.Fprint(w, "# HELP mschedd_jobs_recovered_total Journal records re-seated at startup (terminal and re-enqueued).\n# TYPE mschedd_jobs_recovered_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_recovered_total %d\n", jc.Recovered)
		fmt.Fprint(w, "# HELP mschedd_jobs_completed_total Jobs finished with a successful compile.\n# TYPE mschedd_jobs_completed_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_completed_total %d\n", jc.Completed)
		fmt.Fprint(w, "# HELP mschedd_jobs_failed_total Jobs finished with a typed compile error (parse, budget, deadline, ...).\n# TYPE mschedd_jobs_failed_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_failed_total %d\n", jc.Failed)
		fmt.Fprint(w, "# HELP mschedd_jobs_expired_total Jobs whose deadline passed before completion.\n# TYPE mschedd_jobs_expired_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_expired_total %d\n", jc.Expired)
		fmt.Fprint(w, "# HELP mschedd_jobs_rejected_total Submissions refused by admission, by reason.\n# TYPE mschedd_jobs_rejected_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_rejected_total{reason=\"draining\"} %d\n", jc.RejectDrain)
		fmt.Fprintf(w, "mschedd_jobs_rejected_total{reason=\"queue_full\"} %d\n", jc.RejectFull)
		fmt.Fprintf(w, "mschedd_jobs_rejected_total{reason=\"quota\"} %d\n", jc.RejectQuota)
		fmt.Fprint(w, "# HELP mschedd_jobs_queued Jobs waiting for a worker now.\n# TYPE mschedd_jobs_queued gauge\n")
		fmt.Fprintf(w, "mschedd_jobs_queued %d\n", jc.Queued)
		fmt.Fprint(w, "# HELP mschedd_jobs_running Jobs executing now.\n# TYPE mschedd_jobs_running gauge\n")
		fmt.Fprintf(w, "mschedd_jobs_running %d\n", jc.Running)
		fmt.Fprint(w, "# HELP mschedd_jobs_tenants Tenants seen since start.\n# TYPE mschedd_jobs_tenants gauge\n")
		fmt.Fprintf(w, "mschedd_jobs_tenants %d\n", jc.Tenants)
	}
	if jj := g.jobsJournal; jj != nil {
		fmt.Fprint(w, "# HELP mschedd_jobs_journal_records Job records on disk now.\n# TYPE mschedd_jobs_journal_records gauge\n")
		fmt.Fprintf(w, "mschedd_jobs_journal_records %d\n", jj.Records)
		fmt.Fprint(w, "# HELP mschedd_jobs_journal_quarantined_total Journal files the startup scan moved to quarantine.\n# TYPE mschedd_jobs_journal_quarantined_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_journal_quarantined_total %d\n", jj.Quarantined)
		fmt.Fprint(w, "# HELP mschedd_jobs_journal_write_errors_total Failed journal writes.\n# TYPE mschedd_jobs_journal_write_errors_total counter\n")
		fmt.Fprintf(w, "mschedd_jobs_journal_write_errors_total %d\n", jj.WriteErrors)
	}

	fmt.Fprint(w, "# HELP mschedd_ii_attempts_total Candidate-II attempts represented by served schedules (cache hits replay the original search's counters).\n# TYPE mschedd_ii_attempts_total counter\n")
	fmt.Fprintf(w, "mschedd_ii_attempts_total %d\n", m.iiAttempts)
	fmt.Fprint(w, "# HELP mschedd_sched_steps_total Operation scheduling steps represented by served schedules.\n# TYPE mschedd_sched_steps_total counter\n")
	fmt.Fprintf(w, "mschedd_sched_steps_total %d\n", m.schedSteps)
	fmt.Fprint(w, "# HELP mschedd_unschedules_total Operations displaced during the represented searches.\n# TYPE mschedd_unschedules_total counter\n")
	fmt.Fprintf(w, "mschedd_unschedules_total %d\n", m.unschedules)

	fmt.Fprint(w, "# HELP mschedd_request_duration_seconds Request latency.\n# TYPE mschedd_request_duration_seconds histogram\n")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(w, "mschedd_request_duration_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)]
	fmt.Fprintf(w, "mschedd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "mschedd_request_duration_seconds_sum %g\n", m.latencySum)
	fmt.Fprintf(w, "mschedd_request_duration_seconds_count %d\n", m.latencyCount)
}

// trimFloat renders a bucket bound the way Prometheus clients expect
// (no exponent, no trailing zeros).
func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}
