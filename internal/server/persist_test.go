package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

// TestDrainRefusalCarriesRetryAfter: during drain, refused work is a 503
// with a Retry-After header and the draining kind — the signal proxies
// use to fail over cleanly instead of surfacing connection errors.
func TestDrainRefusalCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.StartDrain()

	payload, _ := json.Marshal(&CompileRequest{Source: daxpySource})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Kind != KindDraining || eresp.RetryAfterSec != 1 {
		t.Fatalf("body = %+v, want kind=draining retry_after_sec=1", eresp)
	}
}

// TestPersistentCacheWarmRestart is the acceptance path in miniature: a
// server with a disk cache compiles, "crashes", and a fresh server over
// the same directory serves the repeat request as a disk hit — no
// recompile — with the /metrics series to prove it.
func TestPersistentCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(&CompileRequest{Source: daxpySource})

	s1 := New(Config{})
	if err := s1.EnablePersistentCache(dir); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(ts1.URL+"/compile", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	firstBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ts1.Close() // the "crash" — nothing flushed beyond the write-through
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile status = %d (%s)", resp.StatusCode, firstBody)
	}

	s2 := New(Config{})
	if err := s2.EnablePersistentCache(dir); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/compile", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	secondBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("restarted replica served different bytes:\nbefore %s\nafter  %s", firstBody, secondBody)
	}

	if st := s2.CacheStats(); st.Misses != 0 {
		t.Fatalf("restarted replica compiled (%+v), want disk hit", st)
	}
	if st := s2.DiskCacheStats(); st.Hits != 1 {
		t.Fatalf("disk stats = %+v, want 1 hit", st)
	}
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"mschedd_diskcache_hits_total 1",
		"mschedd_cache_misses_total 0",
		"mschedd_diskcache_entries 1",
	} {
		if !strings.Contains(string(mbody), want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestMemoryOnlyMetricsUnchanged: without a persistent tier the
// exposition must not grow diskcache series (scrape stability).
func TestMemoryOnlyMetricsUnchanged(t *testing.T) {
	s := New(Config{})
	if text := s.MetricsText(); strings.Contains(text, "diskcache") {
		t.Fatalf("memory-only exposition mentions diskcache:\n%s", text)
	}
}

// TestRouteKeyMatchesCacheKey: the proxy's routing digest must equal the
// key the serving replica's cache uses — that identity is what makes
// "each key has one home" line up with "each replica's cache stays hot".
func TestRouteKeyMatchesCacheKey(t *testing.T) {
	s := New(Config{})
	for _, req := range []CompileRequest{
		{Source: daxpySource},
		{Source: daxpySource, Machine: "tiny"},
		{Source: daxpySource, Options: &OptionsSpec{Priority: "fifo"}},
		{Source: chainSource(8), Machine: "generic", Options: &OptionsSpec{Delays: "conservative"}},
		// Inline machines route by parsed fingerprint, through the same
		// machineFor path the cache key uses.
		{Source: daxpySource, MachineSource: machine.PrintMachine(machine.Tiny())},
	} {
		key, ok := RouteKey(&req)
		if !ok {
			t.Fatalf("RouteKey rejected a compilable request: %+v", req)
		}
		item := s.compileItem(context.Background(), &req)
		if item.Status != http.StatusOK {
			t.Fatalf("reference compile failed: %+v", item)
		}
		if want := cacheKeyFor(t, s, &req); key != want {
			t.Fatalf("RouteKey = %s, cache key = %s", key, want)
		}
	}
	// Unroutable requests: unknown machine, bad options, parse garbage.
	for _, req := range []CompileRequest{
		{Source: daxpySource, Machine: "pdp11"},
		{Source: daxpySource, Options: &OptionsSpec{Priority: "zorch"}},
		{Source: "loop broken\nnonsense\n"},
	} {
		if _, ok := RouteKey(&req); ok {
			t.Errorf("RouteKey accepted %+v", req)
		}
		if FallbackKey(&req) == "" || len(FallbackKey(&req)) != 64 {
			t.Errorf("FallbackKey malformed for %+v", req)
		}
	}
}

// cacheKeyFor computes the schedcache key through the same parse and
// option building the serving path performs.
func cacheKeyFor(t *testing.T, s *Server, req *CompileRequest) string {
	t.Helper()
	m, errResp := s.machineFor(req)
	if errResp != nil {
		t.Fatal(errResp.Error)
	}
	opts, errResp := buildOptions(req.Options)
	if errResp != nil {
		t.Fatal(errResp.Error)
	}
	loop, err := looplang.Parse(req.Source, m)
	if err != nil {
		t.Fatal(err)
	}
	return schedcache.Key(loop, m, opts)
}
