package schedcache

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"modsched/internal/core"
	"modsched/internal/diskcache"
	"modsched/internal/machine"
)

func openDisk(t *testing.T, dir string) *diskcache.Store {
	t.Helper()
	d, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskTierSurvivesRestart: a compile written through the disk tier
// is served by a brand-new Cache over the same directory without
// recompiling, and the result is deep-equal to the original (the
// effort counters included — responses must replay byte-for-byte).
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m := machine.Cydra5()
	l := testLoop(t, m, "persist", 3)
	opts := core.DefaultOptions()

	c1 := New(8)
	c1.AttachDisk(openDisk(t, dir))
	s1, d1, err := c1.Do(context.Background(), l, m, opts, compileDirect(l, m, opts))
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.DiskStats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("disk stats after compile = %+v, want 1 write / 1 miss", st)
	}

	// The "restarted replica": fresh memory cache, same directory.
	c2 := New(8)
	c2.AttachDisk(openDisk(t, dir))
	s2, d2, err := c2.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		t.Fatal("warm disk tier must not recompile")
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) {
		t.Fatalf("disk hit differs from original compile:\nwas %+v\nnow %+v", s1, s2)
	}
	if st := c2.Stats(); st.Misses != 0 {
		t.Fatalf("memory stats = %+v, want 0 misses (no compile executed)", st)
	}
	if st := c2.DiskStats(); st.Hits != 1 {
		t.Fatalf("disk stats = %+v, want 1 hit", st)
	}

	// Second request on the restarted cache is a plain memory hit: the
	// disk entry was promoted into the LRU.
	if _, _, err := c2.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		t.Fatal("promoted entry must serve from memory")
		return nil, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c2.DiskStats(); st.Hits != 1 {
		t.Fatalf("second request consulted the disk again: %+v", st)
	}
}

// TestDiskCorruptEntryRecompiles: an entry whose checksum holds but
// whose payload cannot be a legal schedule for the loop is evicted as
// corrupt and the compile runs — wrong bytes are never served.
func TestDiskCorruptEntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	m := machine.Cydra5()
	l := testLoop(t, m, "corrupt", 2)
	opts := core.DefaultOptions()

	c1 := New(8)
	d1 := openDisk(t, dir)
	c1.AttachDisk(d1)
	if _, _, err := c1.Do(context.Background(), l, m, opts, compileDirect(l, m, opts)); err != nil {
		t.Fatal(err)
	}

	// Overwrite the entry with a frame-valid but semantically garbage
	// payload: a well-formed JSON blob of the wrong shape.
	key := Key(l, m, opts)
	var found string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Base(path) == key+".sch" {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatal("persisted entry not found on disk")
	}
	if err := os.Remove(found); err != nil {
		t.Fatal(err)
	}
	fresh := openDisk(t, dir)
	if err := fresh.Put(key, []byte(fmt.Sprintf(`{"V":%d,"Times":[1,2],"Alts":[1]}`, blobVersion))); err != nil {
		t.Fatal(err)
	}

	c2 := New(8)
	c2.AttachDisk(fresh)
	compiled := false
	s, _, err := c2.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		compiled = true
		return compileDirect(l, m, opts)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !compiled {
		t.Fatal("garbage disk entry served without recompiling")
	}
	if err := core.Check(s); err != nil {
		t.Fatalf("served schedule fails legality: %v", err)
	}
	st := c2.DiskStats()
	if st.Corrupt != 1 {
		t.Fatalf("disk stats = %+v, want Corrupt=1", st)
	}
	// The recompile healed the entry: a restart now serves it warm.
	c3 := New(8)
	c3.AttachDisk(openDisk(t, dir))
	if _, _, err := c3.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		t.Fatal("healed entry must serve from disk")
		return nil, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskVersionDrift: an entry from a future (or past) codec version
// is treated as corrupt, not misdecoded.
func TestDiskVersionDrift(t *testing.T) {
	dir := t.TempDir()
	m := machine.Cydra5()
	l := testLoop(t, m, "drift", 2)
	opts := core.DefaultOptions()

	d := openDisk(t, dir)
	key := Key(l, m, opts)
	if err := d.Put(key, []byte(`{"V":999}`)); err != nil {
		t.Fatal(err)
	}
	c := New(8)
	c.AttachDisk(d)
	compiled := false
	if _, _, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		compiled = true
		return compileDirect(l, m, opts)()
	}); err != nil {
		t.Fatal(err)
	}
	if !compiled || d.Stats().Corrupt != 1 {
		t.Fatalf("version-drifted entry not evicted (compiled=%v, stats=%+v)", compiled, d.Stats())
	}
}

// TestDiskV1EntryRecompiles: a well-formed version 1 entry — a legal
// schedule for the loop, written before the format moved to version 2 —
// is marked corrupt and recompiled rather than served with its stored
// effort counters.
func TestDiskV1EntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	m := machine.Cydra5()
	l := testLoop(t, m, "v1", 2)
	opts := core.DefaultOptions()

	s, _, err := compileDirect(l, m, opts)()
	if err != nil {
		t.Fatal(err)
	}
	stale := s.Stats
	stale.SchedSteps += 1000 // what a replayed v1 entry would report
	data, err := json.Marshal(&blob{
		V: 1, II: s.II, MII: s.MII, ResMII: s.ResMII, Length: s.Length,
		Times: s.Times, Alts: s.Alts, Delays: s.Delays, Stats: stale,
		DegStage: core.StageIterative, HasDegradation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := openDisk(t, dir)
	if err := d.Put(Key(l, m, opts), data); err != nil {
		t.Fatal(err)
	}
	c := New(8)
	c.AttachDisk(d)
	compiled := false
	got, _, err := c.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
		compiled = true
		return compileDirect(l, m, opts)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !compiled || d.Stats().Corrupt != 1 {
		t.Fatalf("v1 entry served instead of recompiled (compiled=%v, stats=%+v)", compiled, d.Stats())
	}
	if got.Stats != s.Stats {
		t.Fatalf("served counters %+v, want a fresh compile's %+v", got.Stats, s.Stats)
	}
}

// TestDiskRoundTripManyLoops drives several distinct loops and machines
// through a disk-backed cache twice (cold, then a fresh cache over the
// same dir) and requires deep equality throughout — the moral equivalent
// of a replica restart under mixed traffic.
func TestDiskRoundTripManyLoops(t *testing.T) {
	dir := t.TempDir()
	machines := []*machine.Machine{machine.Cydra5(), machine.Tiny()}
	opts := core.DefaultOptions()

	type want struct {
		s *core.Schedule
		d *core.Degradation
	}
	c1 := New(64)
	c1.AttachDisk(openDisk(t, dir))
	var wants []want
	var loops []int
	for i := 1; i <= 5; i++ {
		for mi := range machines {
			m := machines[mi]
			l := testLoop(t, m, "many", i)
			s, d, err := c1.Do(context.Background(), l, m, opts, compileDirect(l, m, opts))
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, want{s, d})
			loops = append(loops, i)
			_ = loops
		}
	}

	c2 := New(64)
	c2.AttachDisk(openDisk(t, dir))
	k := 0
	for i := 1; i <= 5; i++ {
		for mi := range machines {
			m := machines[mi]
			l := testLoop(t, m, "many", i)
			s, d, err := c2.Do(context.Background(), l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
				t.Fatalf("loop %d machine %d recompiled despite warm disk", i, mi)
				return nil, nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The restart serves a different *ir.Loop pointer; compare the
			// schedule's own fields.
			if s.II != wants[k].s.II || s.Length != wants[k].s.Length ||
				!reflect.DeepEqual(s.Times, wants[k].s.Times) ||
				!reflect.DeepEqual(s.Alts, wants[k].s.Alts) ||
				!reflect.DeepEqual(s.Stats, wants[k].s.Stats) ||
				!reflect.DeepEqual(d, wants[k].d) {
				t.Fatalf("loop %d machine %d: disk round trip drifted", i, mi)
			}
			k++
		}
	}
	if st := c2.DiskStats(); st.Hits != int64(k) {
		t.Fatalf("disk stats = %+v, want %d hits", st, k)
	}
}
