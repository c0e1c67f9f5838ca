package schedcache

import (
	"encoding/json"
	"errors"
	"fmt"

	"modsched/internal/core"
	"modsched/internal/diskcache"
	"modsched/internal/ir"
	"modsched/internal/machine"
)

// blobVersion gates the persisted schedule format. Bump it whenever the
// codec changes incompatibly: old entries then decode-fail, are marked
// corrupt, and recompile — never misdecode. Also bump it when what a
// compile stores changes: version 1 entries may carry warm-start effort
// counters, which responses would replay, so version 2 retires them.
const blobVersion = 2

// blob is the persisted form of one cached compilation. Only the fields
// a schedule needs beyond the caller's own (loop, machine, options)
// survive: the issue times, alternatives, delays, bounds, the effort
// counters (responses replay them byte-for-byte), and the degradation
// report. Loop and machine pointers are rebound on load, exactly as an
// in-memory hit rebinds them.
type blob struct {
	V                       int
	II, MII, ResMII, Length int
	Times, Alts, Delays     []int
	Stats                   core.Counters
	DegStage                string
	DegFailures             []blobFailure
	HasDegradation          bool
}

// blobFailure is one StageFailure with its error flattened to a string.
// The reconstructed error renders identically (Degradation.String uses
// %v), which is all a cached degradation report is used for; the typed
// sentinels belong to live compiles.
type blobFailure struct {
	Stage string `json:"stage"`
	Error string `json:"error"`
}

// encodeBlob serializes a compilation result for the disk tier.
func encodeBlob(sched *core.Schedule, deg *core.Degradation) ([]byte, error) {
	b := blob{
		V:      blobVersion,
		II:     sched.II,
		MII:    sched.MII,
		ResMII: sched.ResMII,
		Length: sched.Length,
		Times:  sched.Times,
		Alts:   sched.Alts,
		Delays: sched.Delays,
		Stats:  sched.Stats,
	}
	if deg != nil {
		b.HasDegradation = true
		b.DegStage = deg.Stage
		for _, f := range deg.Failures {
			b.DegFailures = append(b.DegFailures, blobFailure{Stage: f.Stage, Error: f.Err.Error()})
		}
	}
	return json.Marshal(&b)
}

// decodeBlob reconstructs a schedule from its persisted form, rebound to
// the caller's loop and machine, and revalidates it: the shape must
// match the loop, and core.Check must certify the schedule legal against
// the live machine model. A payload that fails either is corrupt (or was
// written for a different format era) and must be evicted by the caller.
func decodeBlob(data []byte, l *ir.Loop, m *machine.Machine, opts core.Options) (*core.Schedule, *core.Degradation, error) {
	var b blob
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("schedcache: undecodable disk entry: %w", err)
	}
	if b.V != blobVersion {
		return nil, nil, fmt.Errorf("schedcache: disk entry format v%d, want v%d", b.V, blobVersion)
	}
	if len(b.Times) != len(l.Ops) || len(b.Alts) != len(l.Ops) {
		return nil, nil, errors.New("schedcache: disk entry shape does not match the loop")
	}
	sched := &core.Schedule{
		Loop:    l,
		Machine: m,
		Options: opts,
		II:      b.II,
		MII:     b.MII,
		ResMII:  b.ResMII,
		Times:   b.Times,
		Alts:    b.Alts,
		Delays:  b.Delays,
		Length:  b.Length,
		Stats:   b.Stats,
	}
	// The checksum already proved the bytes are what was written; Check
	// proves what was written is a legal schedule for THIS loop and
	// machine. A stale entry from a drifted machine model, or a key
	// collision, dies here instead of being served.
	if err := core.Check(sched); err != nil {
		return nil, nil, fmt.Errorf("schedcache: disk entry failed legality check: %w", err)
	}
	var deg *core.Degradation
	if b.HasDegradation {
		deg = &core.Degradation{Stage: b.DegStage}
		for _, f := range b.DegFailures {
			deg.Failures = append(deg.Failures, core.StageFailure{Stage: f.Stage, Err: errors.New(f.Error)})
		}
	}
	return sched, deg, nil
}

// AttachDisk mounts a persistent tier under the in-memory LRU. On a
// memory miss the disk is consulted before compiling: a verified disk
// entry is promoted into the LRU and served (counted in the store's
// Stats as a hit — the cache's own Misses still mean "compile
// executed"); a disk miss compiles and writes the result back, so
// restarts and cold replicas serve warm. Attach before serving traffic;
// the field is not synchronized against in-flight Do calls.
func (c *Cache) AttachDisk(d *diskcache.Store) { c.disk = d }

// DiskStats returns the attached store's counters (zero Stats when no
// disk tier is attached).
func (c *Cache) DiskStats() diskcache.Stats {
	if c.disk == nil {
		return diskcache.Stats{}
	}
	return c.disk.Stats()
}

// diskGet consults the persistent tier for key, reconstructing and
// revalidating the entry against the caller's loop and machine. An entry
// that fails decoding or legality is marked corrupt in the store
// (deleted and counted) and reported as a miss.
func (c *Cache) diskGet(key string, l *ir.Loop, m *machine.Machine, opts core.Options) (*core.Schedule, *core.Degradation, bool) {
	if c.disk == nil {
		return nil, nil, false
	}
	data, ok := c.disk.Get(key)
	if !ok {
		return nil, nil, false
	}
	sched, deg, err := decodeBlob(data, l, m, opts)
	if err != nil {
		c.disk.MarkCorrupt(key)
		return nil, nil, false
	}
	return sched, deg, true
}

// diskPut persists a freshly compiled result, best effort: a write
// failure is counted by the store and the compile is served from memory
// regardless.
func (c *Cache) diskPut(key string, sched *core.Schedule, deg *core.Degradation) {
	if c.disk == nil {
		return
	}
	data, err := encodeBlob(sched, deg)
	if err != nil {
		return
	}
	c.disk.Put(key, data)
}
