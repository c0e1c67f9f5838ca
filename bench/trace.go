package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval: a workload pass, an item (loop or request),
// or a call into one layer. Spans of one item share its Item id. Times are
// Unix nanoseconds.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Item   int64  `json:"item"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of a span name before the first dot ("core" for
// "core.Check"); pass and item spans belong to the harness.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// newID reserves a span id, so children can name their parent before the
// parent ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records finished spans.
func (t *tracer) add(s ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// call runs fn as a span named name under parent, for item.
func (t *tracer) call(name string, parent, item int64, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.newID()
	start := time.Now()
	fn()
	t.add(span{ID: id, Parent: parent, Item: item, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as DIR/<workload>.spans.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (a hedged
// duplicate racing its primary) are merged first, so covered time is never
// counted twice and self time never goes negative.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// layerProfile is the traced run's per-layer breakdown.
type layerProfile struct {
	// busy is the workload's busy time: the summed duration of its item
	// spans. Layer self times are shares of it.
	busy int64
	// self sums self time per layer and selfName per span name; calls
	// counts spans per name; lat keeps per-call durations per name in
	// microseconds.
	self, selfName map[string]int64
	calls          map[string]int64
	lat            map[string][]float64
}

// profile folds spans into per-layer self time. Item spans are the
// workload's unit of work, and their own self time is the harness's; the
// "pass" spans above them only frame idle time and are left out.
func profile(spans []span) *layerProfile {
	p := &layerProfile{self: map[string]int64{}, selfName: map[string]int64{}, calls: map[string]int64{}, lat: map[string][]float64{}}
	st := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "pass":
			continue
		case "item":
			p.busy += s.End - s.Start
			p.self["harness"] += st[s.ID]
			continue
		}
		p.self[s.layer()] += st[s.ID]
		p.selfName[s.Name] += st[s.ID]
		p.calls[s.Name]++
		p.lat[s.Name] = append(p.lat[s.Name], float64(s.End-s.Start)/1e3)
	}
	return p
}

// busyPct is a layer's self time as a share of workload busy time.
func (p *layerProfile) busyPct(layer string) float64 {
	if p.busy == 0 {
		return 0
	}
	return 100 * float64(p.self[layer]) / float64(p.busy)
}

// namePct is one span name's self time as a share of busy time.
func (p *layerProfile) namePct(name string) float64 {
	if p.busy == 0 {
		return 0
	}
	return 100 * float64(p.selfName[name]) / float64(p.busy)
}

// callsPerMS is calls per millisecond of the layer's self time: the
// reciprocal of its mean per-call cost.
func (p *layerProfile) callsPerMS(layer string, names ...string) float64 {
	var n int64
	for _, name := range names {
		n += p.calls[name]
	}
	if n == 0 || p.self[layer] == 0 {
		return 0
	}
	return float64(n) / (float64(p.self[layer]) / 1e6)
}

// table renders the per-layer busy shares, largest first.
func (p *layerProfile) table() string {
	layers := make([]string, 0, len(p.self))
	for l := range p.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if p.self[layers[i]] != p.self[layers[j]] {
			return p.self[layers[i]] > p.self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s\n", "layer", "self_ms", "busy%")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-12s %10.1f %8.2f\n", l, float64(p.self[l])/1e6, p.busyPct(l))
	}
	return b.String()
}
