package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload run measured. Metrics holds the
// end-to-end catalogue (untraced run), Layers the per-layer catalogue
// (traced run), Detail the supporting numbers: quartiles, sample counts,
// per-call latency percentiles and workload-specific extras.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	NumCPU    int              `json:"num_cpu"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Wrong     int64            `json:"wrong_outputs"`
	Invalid   []string         `json:"invalid,omitempty"`
	Metrics   map[string]value `json:"metrics,omitempty"`
	Layers    map[string]value `json:"layers,omitempty"`
	Detail    map[string]value `json:"detail,omitempty"`
	// LayerTable is the traced run's busy-share table, printed for people.
	LayerTable string `json:"-"`
}

func newReport(workload string, seed int64, seconds, ncpu int) *report {
	return &report{
		Workload: workload, Seed: seed, Seconds: seconds, NumCPU: ncpu,
		Metrics: map[string]value{}, Layers: map[string]value{}, Detail: map[string]value{},
	}
}

// set records a catalogue metric under its catalogue unit.
func (r *report) set(name string, v float64) {
	if m, ok := find(endToEnd, name); ok {
		r.Metrics[name] = value{v, m.Unit}
	} else if m, ok := find(perLayer, name); ok {
		r.Layers[name] = value{v, m.Unit}
	} else {
		panic("bench: metric " + name + " is not in the catalogue")
	}
}

// detail records a supporting number.
func (r *report) detail(name string, v float64, unit string) { r.Detail[name] = value{v, unit} }

// invalidf marks the run invalid: its numbers must not be used.
func (r *report) invalidf(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// correct reports whether every output matched its oracle.
func (r *report) correct() bool { return r.Wrong == 0 }

// ok reports whether the run may be used at all.
func (r *report) ok() bool { return r.correct() && len(r.Invalid) == 0 }

// writeLines prints one "workload metric value unit" line per number:
// end-to-end first, then per-layer, then detail, each group sorted.
func (r *report) writeLines(w io.Writer) {
	for _, group := range []map[string]value{r.Metrics, r.Layers, r.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, n, group[n].Value, group[n].Unit)
		}
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n%s wrong_outputs %d count\n",
		r.Workload, r.Attempted, r.Workload, r.Failed, r.Workload, r.Wrong)
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "%s INVALID %s\n", r.Workload, why)
	}
}

// contractLine is the one-line result the benchmark's callers parse:
// end-to-end metrics for an untraced run, per-layer metrics for a traced
// one.
func (r *report) contractLine(traced bool) ([]byte, error) {
	metrics := r.Metrics
	if traced {
		metrics = r.Layers
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
}
