package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends requests on a fixed schedule whatever the service does:
// request k is due at start + k/rate, and its latency runs from that due
// time, so a stall also charges the requests that queued behind it. At
// most conns requests are in flight, one per connection, as with that many
// HTTP/1.1 keep-alive clients.
type openLoop struct {
	rate  float64 // requests per second
	dur   time.Duration
	conns int
	// first is the index of the first request, so consecutive phases walk
	// one seeded request sequence.
	first int
	// send performs request k on connection conn; due is when it was due.
	// A non-nil error counts the request as failed.
	send func(conn, k int, due time.Time) error
}

// loadResult is what one open-loop phase observed.
type loadResult struct {
	due int // requests due before the phase ended
	// sent and failed count requests actually sent; unsent ones were still
	// queued for a connection when the grace period after the phase ended.
	sent, failed, unsent int
	// lat is ms from due time to completion per request; a failed or
	// unsent request counts as +Inf.
	lat        []float64
	late       []float64 // ms the generator sent after due while a connection sat idle
	backlogEnd int       // due but not completed when the phase ended
	backlogMax int
}

// run executes the phase and waits for every request it sent. Requests
// still queued when the phase ends are sent during a grace period as long
// as the phase, so a stall near the end shows as latency; any left after
// it stay unsent.
func (o openLoop) run() loadResult {
	gap := time.Duration(float64(time.Second) / o.rate)
	total := int(math.Ceil(o.dur.Seconds()*o.rate - 1e-9))
	start := time.Now()
	end := start.Add(o.dur)
	grace := end.Add(o.dur)
	var next atomic.Int64
	var mu sync.Mutex
	var res loadResult
	var done []time.Time
	var wg sync.WaitGroup
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				now := time.Now()
				late := -1.0
				if wait := due.Sub(now); wait > 0 {
					// The connection is free before i is due: send it on
					// time, even if the timer wakes after the phase end.
					time.Sleep(wait)
					late = float64(time.Since(due)) / 1e6
				} else if !now.Before(grace) {
					return // i queued past the grace period; it and all after it stay unsent
				}
				err := o.send(conn, o.first+i, due)
				fin := time.Now()
				mu.Lock()
				res.sent++
				if late >= 0 {
					res.late = append(res.late, late)
				}
				if err != nil {
					res.failed++
					res.lat = append(res.lat, math.Inf(1))
				} else {
					res.lat = append(res.lat, float64(fin.Sub(due))/1e6)
				}
				done = append(done, fin)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.due = total
	res.unsent = total - res.sent
	for i := 0; i < res.unsent; i++ {
		res.lat = append(res.lat, math.Inf(1))
	}
	res.backlogEnd, res.backlogMax = backlog(start, end, gap, total, done)
	return res
}

// backlog derives the outstanding-request counts from completion times:
// at each completion (and at the phase end), requests due so far minus
// requests completed so far.
func backlog(start, end time.Time, gap time.Duration, total int, done []time.Time) (atEnd, maxSeen int) {
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	dueBy := func(t time.Time) int {
		if t.Before(start) {
			return 0
		}
		n := int(t.Sub(start)/gap) + 1
		if n > total {
			n = total
		}
		return n
	}
	completed := 0
	for _, t := range done {
		if !t.Before(end) {
			break
		}
		if b := dueBy(t) - completed; b > maxSeen {
			maxSeen = b
		}
		completed++
	}
	atEnd = total - completed
	if atEnd > maxSeen {
		maxSeen = atEnd
	}
	return atEnd, maxSeen
}
