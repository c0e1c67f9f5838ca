package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modsched/internal/proxy"
	"modsched/internal/server"
)

// hopRecorder is the harness's middleware around the front's and the
// replicas' handlers. While a tracer is installed it records one span per
// compile request, keyed by the digests of the loops in the body: the
// proxy forwards no headers, so that is how a replica span finds its front
// span afterwards.
type hopRecorder struct {
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex
	keys map[int64][][32]byte
}

func (h *hopRecorder) wrap(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tr.Load()
		if tr == nil || (r.URL.Path != "/compile" && r.URL.Path != "/compile/batch") {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		item, _ := strconv.ParseInt(r.Header.Get(itemHeader), 10, 64)
		id := tr.newID()
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		tr.add(span{ID: id, Parent: item, Item: item, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
		keys := bodyKeys(r.URL.Path, body)
		h.mu.Lock()
		h.keys[id] = keys
		h.mu.Unlock()
	})
}

// bodyKeys digests each loop request in a body: the whole body for
// /compile, each element of "loops" for /compile/batch (the proxy forwards
// those elements byte for byte).
func bodyKeys(path string, body []byte) [][32]byte {
	if path != "/compile/batch" {
		return [][32]byte{sha256.Sum256(body)}
	}
	var b struct {
		Loops []json.RawMessage `json:"loops"`
	}
	if json.Unmarshal(body, &b) != nil {
		return nil
	}
	keys := make([][32]byte, len(b.Loops))
	for i, raw := range b.Loops {
		keys[i] = sha256.Sum256(raw)
	}
	return keys
}

// link gives every replica span its parent: the front span that carries
// the same loop and encloses it in time (the latest-starting one, when two
// clients sent the same loop at once). A hedged duplicate finds the same
// parent as its primary.
func (h *hopRecorder) link(spans []span) []span {
	h.mu.Lock()
	defer h.mu.Unlock()
	fronts := map[[32]byte][]span{}
	for _, s := range spans {
		if s.Name == "proxy.Handler" {
			for _, k := range h.keys[s.ID] {
				fronts[k] = append(fronts[k], s)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "server.Handler" || len(h.keys[s.ID]) == 0 {
			continue
		}
		var best *span
		for j, f := range fronts[h.keys[s.ID][0]] {
			if f.Start <= s.Start && f.End >= s.End && (best == nil || f.Start > best.Start) {
				best = &fronts[h.keys[s.ID][0]][j]
			}
		}
		if best != nil {
			s.Parent, s.Item = best.ID, best.Item
		}
	}
	return spans
}

// cluster is one front and its replicas on loopback.
type cluster struct {
	replicas []*server.Server
	front    *proxy.Proxy
	https    []*http.Server
	wg       sync.WaitGroup
	url      string
}

// serve starts handler on a loopback port and returns its base URL.
func (c *cluster) serve(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: handler}
	c.https = append(c.https, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

func startCluster(h *hopRecorder) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < servedReplicas; i++ {
		s := server.New(server.Config{CacheCapacity: servedCacheCap})
		c.replicas = append(c.replicas, s)
		u, err := c.serve(h.wrap("server.Handler", s.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	p, err := proxy.New(proxy.Config{Replicas: urls, Seed: 1})
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = p
	p.Start()
	if c.url, err = c.serve(h.wrap("proxy.Handler", p.Handler())); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops the front's health loop and every listener, and waits for
// the serving goroutines to exit.
func (c *cluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	for _, hs := range c.https {
		hs.Close()
	}
	c.wg.Wait()
}

// counters sums the cache and admission counters over the replicas and
// reads the front's retry and hedge counters, under per-layer metric names.
func (c *cluster) counters() map[string]float64 {
	out := map[string]float64{}
	for _, s := range c.replicas {
		st := s.CacheStats()
		out["schedcache.hits"] += float64(st.Hits)
		out["schedcache.misses"] += float64(st.Misses)
		out["schedcache.evictions"] += float64(st.Evictions)
		out["schedcache.inflight_joins"] += float64(st.Inflight)
		out["server.shed"] += promValue(s.MetricsText(), "mschedd_shed_total")
	}
	ft := c.front.MetricsText()
	out["proxy.retries"] = promValue(ft, "mschedfront_retries_total")
	out["proxy.hedges"] = promValue(ft, "mschedfront_hedges_total")
	out["proxy.hedge_wins"] = promValue(ft, "mschedfront_hedge_wins_total")
	return out
}

// promValue reads one unlabelled sample from a Prometheus exposition.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}
