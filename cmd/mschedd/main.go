// Command mschedd serves the modulo scheduler over HTTP: looplang
// sources in (one at a time on /compile, many at once on
// /compile/batch), schedules and kernel code out as JSON, with one
// process-wide memoizing compile cache behind every request. See
// docs/serving.md for the API, the error-to-status mapping, the metrics
// catalog, and the capacity model.
//
//	mschedd [-addr :8437] [-cache-cap N] [-max-inflight N] [-queue N]
//	        [-queue-wait 5s] [-compile-timeout 30s] [-batch-workers N]
//	        [-drain-timeout 30s] [-persist-cache DIR]
//	        [-jobs DIR] [-job-workers N] [-job-queue N] [-job-wait 30s]
//	        [-tenant name:weight[:rate[:burst]]]...
//
// -persist-cache DIR mounts a crash-safe content-addressed schedule
// cache under the in-memory one (internal/diskcache): compiles write
// through, restarts serve warm, and corrupt or torn entries are
// deleted and recompiled, never served.
//
// -jobs DIR mounts the async jobs API (POST /jobs, GET /jobs/{id},
// GET /jobs/{id}/wait) with DIR as its write-ahead journal: a job
// acknowledged by POST /jobs has been fsynced and survives SIGKILL —
// the restarted daemon re-enqueues it and completes it with the same
// bytes. -tenant (repeatable) gives a tenant a weighted fair share and
// an optional submission quota; unnamed tenants get weight 1,
// unlimited.
//
// On SIGTERM or SIGINT the daemon drains: /healthz flips to 503, new
// compile requests are refused with 503 "draining", in-flight requests
// run to completion (bounded by -drain-timeout), the final /metrics
// exposition is flushed to stderr, and the process exits 0. A second
// signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"modsched/internal/jobs"
	"modsched/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon behind an exit code so tests can drive it
// in-process: 0 after a clean drain, 2 for flag or listen errors, 1 for
// a serve failure or a forced shutdown.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", ":8437", "listen address")
		cacheCap       = fs.Int("cache-cap", 0, "compile cache capacity in entries (0 = default)")
		maxInFlight    = fs.Int("max-inflight", 0, "concurrently executing requests (0 = 2*GOMAXPROCS)")
		queueDepth     = fs.Int("queue", 0, "waiting-room depth beyond the in-flight bound (0 = 4*max-inflight)")
		queueWait      = fs.Duration("queue-wait", 0, "longest a request may wait for a slot before 429 (0 = 5s)")
		compileTimeout = fs.Duration("compile-timeout", 0, "per-compile deadline ceiling and default (0 = 30s)")
		batchWorkers   = fs.Int("batch-workers", 0, "workers fanning one batch across the pool (0 = GOMAXPROCS)")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "longest to wait for in-flight requests on shutdown")
		persistCache   = fs.String("persist-cache", "", "directory for the crash-safe persistent schedule cache (empty = memory only)")
		jobsDir        = fs.String("jobs", "", "journal directory for the async jobs API (empty = jobs API off)")
		jobWorkers     = fs.Int("job-workers", 0, "concurrent job compiles (0 = GOMAXPROCS)")
		jobQueue       = fs.Int("job-queue", 0, "admitted-but-unfinished job bound (0 = 1024)")
		jobWait        = fs.Duration("job-wait", 0, "cap on one GET /jobs/{id}/wait long poll (0 = 30s)")
	)
	tenants := map[string]jobs.TenantConfig{}
	fs.Func("tenant", "tenant spec name:weight[:rate[:burst]], repeatable (weight = fair share, rate = jobs/sec quota)", func(v string) error {
		name, tc, err := parseTenantSpec(v)
		if err != nil {
			return err
		}
		tenants[name] = tc
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mschedd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	srv := server.New(server.Config{
		CacheCapacity:  *cacheCap,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		CompileTimeout: *compileTimeout,
		BatchWorkers:   *batchWorkers,
	})
	if *persistCache != "" {
		// Mount the disk tier before the listener: a replica restarted
		// over a warm directory must serve its very first repeat request
		// as a cache hit. Opening scans the directory and quarantines
		// malformed files; the counters land on /metrics.
		if err := srv.EnablePersistentCache(*persistCache); err != nil {
			fmt.Fprintf(stderr, "mschedd: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "mschedd: persistent cache at %s (%d entries)\n", *persistCache, srv.DiskCacheStats().Entries)
	}
	if *jobsDir != "" {
		// Mount jobs before the listener for the same reason as the disk
		// cache: recovery must finish before the first poll can arrive, so
		// a client that submitted to the previous life of this journal can
		// immediately fetch its job.
		if err := srv.EnableJobs(server.JobsConfig{
			Dir:         *jobsDir,
			Workers:     *jobWorkers,
			MaxQueued:   *jobQueue,
			WaitTimeout: *jobWait,
			Tenants:     tenants,
		}); err != nil {
			fmt.Fprintf(stderr, "mschedd: %v\n", err)
			return 2
		}
		jc := srv.JobsCounters()
		fmt.Fprintf(stdout, "mschedd: jobs journal at %s (%d recovered, %d queued)\n", *jobsDir, jc.Recovered, jc.Queued)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "mschedd: %v\n", err)
		return 2
	}
	// Print the resolved address (":0" is useful in tests and scripts).
	fmt.Fprintf(stdout, "mschedd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "mschedd: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "mschedd: %v received, draining\n", s)
	}

	// Drain: stop admitting work first so the load balancer and retrying
	// clients move on, then let Shutdown wait out the in-flight requests.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		fmt.Fprintln(stderr, "mschedd: second signal, aborting")
		cancel()
	}()
	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "mschedd: drain incomplete: %v\n", err)
		code = 1
	}
	// Drain the job workers after the HTTP surface is quiet: running
	// jobs finish (bounded by the same drain deadline), queued jobs stay
	// journaled for the next start, and the final metrics dump below
	// reflects the settled queue and journal gauges.
	if err := srv.CloseJobs(ctx); err != nil {
		fmt.Fprintf(stderr, "mschedd: jobs drain incomplete: %v\n", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "mschedd: %v\n", err)
		code = 1
	}
	// The final counters go to stderr so operators keep the last word on
	// what the process served.
	fmt.Fprint(stderr, srv.MetricsText())
	fmt.Fprintln(stderr, "mschedd: drained")
	return code
}

// parseTenantSpec parses one -tenant value: name:weight[:rate[:burst]].
func parseTenantSpec(v string) (string, jobs.TenantConfig, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
		return "", jobs.TenantConfig{}, fmt.Errorf("tenant spec %q: want name:weight[:rate[:burst]]", v)
	}
	var tc jobs.TenantConfig
	w, err := strconv.Atoi(parts[1])
	if err != nil || w < 1 {
		return "", tc, fmt.Errorf("tenant spec %q: weight must be a positive integer", v)
	}
	tc.Weight = w
	if len(parts) >= 3 {
		r, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || r < 0 {
			return "", tc, fmt.Errorf("tenant spec %q: rate must be a non-negative number", v)
		}
		tc.Rate = r
	}
	if len(parts) == 4 {
		b, err := strconv.Atoi(parts[3])
		if err != nil || b < 1 {
			return "", tc, fmt.Errorf("tenant spec %q: burst must be a positive integer", v)
		}
		tc.Burst = b
	}
	return parts[0], tc, nil
}
