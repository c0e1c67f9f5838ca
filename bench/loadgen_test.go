package main

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue stalls the first request and checks that the
// requests queued behind it are charged from their due times, and that
// only requests sent by an idle connection count toward lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	sentAt := map[int]time.Time{}
	res := openLoop{rate: 200, dur: 100 * time.Millisecond, conns: 1, send: func(_, k int, due time.Time) error {
		mu.Lock()
		sentAt[k] = time.Now()
		mu.Unlock()
		if k == 0 {
			time.Sleep(stall)
		}
		return nil
	}}.run()
	if res.due != 20 || res.sent != 20 || res.unsent != 0 || res.failed != 0 {
		t.Fatalf("due %d sent %d unsent %d failed %d; want 20 sent", res.due, res.sent, res.unsent, res.failed)
	}
	// Request 1 was due 5 ms in but could not leave before the stall ended
	// at ~60 ms, so its latency from due is at least ~55 ms.
	if res.lat[1] < float64(stall-10*time.Millisecond)/1e6 {
		t.Errorf("request 1 latency %.1f ms; the stall should have charged it ~55 ms", res.lat[1])
	}
	// Requests 1..11 were overdue when the connection freed up; none of
	// them is generator lateness.
	if len(res.late) >= 20 || len(res.late) == 0 {
		t.Errorf("%d lateness samples; want only the requests sent by an idle connection", len(res.late))
	}
	for _, l := range res.late {
		if l < 0 {
			t.Errorf("negative lateness %v", l)
		}
	}
}

// TestOpenLoopDrainsAfterEnd stalls the connection across the phase end:
// the requests queued behind the stall are still sent and charged from
// their due times, and a failed request counts as +Inf latency, so neither
// drops out of the latency sample.
func TestOpenLoopDrainsAfterEnd(t *testing.T) {
	res := openLoop{rate: 100, dur: 100 * time.Millisecond, conns: 1, send: func(_, k int, _ time.Time) error {
		switch k {
		case 5: // due at 50 ms, done at ~130 ms
			time.Sleep(80 * time.Millisecond)
		case 7:
			return errors.New("refused")
		}
		return nil
	}}.run()
	if res.due != 10 || res.sent != 10 || res.unsent != 0 || res.failed != 1 || len(res.lat) != 10 {
		t.Fatalf("due %d sent %d unsent %d failed %d, %d latencies; want all 10 sent, one failed",
			res.due, res.sent, res.unsent, res.failed, len(res.lat))
	}
	s := sortedCopy(res.lat)
	if !math.IsInf(s[9], 1) || math.IsInf(s[8], 1) {
		t.Errorf("latencies %v; want exactly the failed request at +Inf", s)
	}
	// Request 6, due at 60 ms, waited for the stall to end at ~130 ms.
	if s[8] < 60 {
		t.Errorf("largest finite latency %.1f ms; the stall should have charged ~70 ms", s[8])
	}
}

func TestOpenLoopOverloadLeavesBacklog(t *testing.T) {
	res := openLoop{rate: 1000, dur: 100 * time.Millisecond, conns: 2, send: func(_, _ int, _ time.Time) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	}}.run()
	if res.unsent == 0 || res.backlogEnd <= 2*2 || res.backlogMax < res.backlogEnd {
		t.Fatalf("unsent %d backlog %d (max %d); a service at 200/s under 1000/s must fall behind", res.unsent, res.backlogEnd, res.backlogMax)
	}
}
