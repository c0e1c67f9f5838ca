package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"modsched/internal/kernels"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/server"
)

func TestGuardTooFewSamples(t *testing.T) {
	rep := newReport("corpus-compile", 1, 1, 1)
	setPercentiles(rep, ramp(999))
	if rep.ok() || !strings.Contains(strings.Join(rep.Invalid, ";"), "latency_p99_ms") {
		t.Fatalf("999 samples support no p99, yet the run is valid: %v", rep.Invalid)
	}
	rep = newReport("corpus-compile", 1, 1, 1)
	setPercentiles(rep, ramp(1000))
	if !rep.ok() {
		t.Fatalf("1000 samples support a p99: %v", rep.Invalid)
	}
}

func TestGuardLateGenerator(t *testing.T) {
	late := make([]float64, 2000)
	for i := range late {
		late[i] = 0.2
	}
	for i := 0; i < 100; i++ {
		late[i] = servedLateMS + 1
	}
	rep := newReport("served", 1, 1, 1)
	setNominal(rep, loadResult{due: 2000, sent: 2000, lat: ramp(2000), late: late})
	if rep.ok() {
		t.Fatal("a generator 6 ms late at p99 left the run valid")
	}
	rep = newReport("served", 1, 1, 1)
	setNominal(rep, loadResult{due: 2000, sent: 2000, lat: ramp(2000), late: late[100:]})
	if !rep.ok() {
		t.Fatalf("a punctual generator invalidated the run: %v", rep.Invalid)
	}
}

// TestGuardFailedRequests checks that one failed or unsent request fails
// the run, whether the open-loop phase saw it or verify finds it among the
// outcomes, and that failures landing on a percentile leave it unreported
// rather than reported as a low latency.
func TestGuardFailedRequests(t *testing.T) {
	late := make([]float64, 2000)
	for i := range late {
		late[i] = 0.2
	}
	for _, c := range []struct {
		name           string
		failed, unsent int
	}{{"failed", 1, 0}, {"unsent", 0, 1}} {
		lat := ramp(2000)
		lat[0] = math.Inf(1)
		rep := newReport("served", 1, 1, 1)
		setNominal(rep, loadResult{due: 2000, sent: 2000 - c.unsent, failed: c.failed, unsent: c.unsent, lat: lat, late: late})
		if rep.ok() {
			t.Errorf("one %s request left the run valid", c.name)
		}
	}

	lat := ramp(2000)
	for i := 0; i < 300; i++ {
		lat[i] = math.Inf(1)
	}
	rep := newReport("served", 1, 1, 1)
	setNominal(rep, loadResult{due: 2000, sent: 2000, failed: 300, lat: lat, late: late})
	if _, ok := rep.Metrics["latency_p90_ms"]; ok || rep.ok() {
		t.Errorf("15%% failed requests: p90 reported as %v, run ok %v", rep.Metrics["latency_p90_ms"], rep.ok())
	}
	if _, err := rep.contractLine(false); err != nil {
		t.Errorf("contract line: %v", err)
	}

	ks, err := kernels.All(machine.Cydra5())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&server.CompileRequest{Source: looplang.Print(ks[0])})
	if err != nil {
		t.Fatal(err)
	}
	pool := []poolItem{{body: body, key: sha256.Sum256(body)}}
	r := &servedRunner{seq: newRequestSeq(pool, 1), outcomes: map[int]outcome{0: {status: http.StatusServiceUnavailable}}}
	rep = newReport("served", 1, 1, 1)
	r.verify(rep)
	if rep.ok() || rep.Failed != 1 || rep.Attempted != 1 {
		t.Errorf("a shed request: failed %d of %d, run ok %v", rep.Failed, rep.Attempted, rep.ok())
	}
}

func TestGuardWrongOutputs(t *testing.T) {
	rep := newReport("simulate", 1, 1, 1)
	rep.Wrong = 1
	if rep.ok() || rep.correct() {
		t.Fatal("a wrong output left the run correct")
	}
	line, err := rep.contractLine(false)
	if err != nil || !strings.Contains(string(line), `"correct":false`) {
		t.Fatalf("contract line %s, %v", line, err)
	}
}
