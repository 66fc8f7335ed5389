package core

import (
	"testing"

	"dresar/internal/sim"
)

func TestSwitchCacheServesCleanSecondReader(t *testing.T) {
	m := MustNew(DefaultConfig().WithSwitchCache(512))
	m.Read(0, 0x40, nil) // cold: from memory; reply populates the top switch cache
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var lat sim.Cycle
	m.Read(8, 0x40, func(l sim.Cycle) { lat = l }) // different leaf: must hit at the top switch
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Collect()
	if s.ReadCleanSwitch != 1 {
		t.Fatalf("switch-cache served = %d; stats %+v", s.ReadCleanSwitch, s)
	}
	if s.SCacheHits != 1 || s.SCacheInserts == 0 {
		t.Fatalf("fabric stats: %+v", s)
	}
	// The home saw only the first read.
	if s.HomeReads != 1 {
		t.Fatalf("home reads = %d, want 1", s.HomeReads)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = lat
}

func TestSwitchCacheInvalidatedByWrite(t *testing.T) {
	m := MustNew(DefaultConfig().WithSwitchCache(512))
	m.Cfg.CheckCoherence = true
	m.lastSeen = map[uint64]uint64{}
	m.Read(0, 0x40, nil)
	m.Run(0)
	m.Write(1, 0x40, nil) // invalidates the cached entry en route to the home
	m.Run(0)
	m.Read(2, 0x40, nil) // must NOT be served stale by the switch cache
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Collect()
	if s.ReadCleanSwitch != 0 {
		t.Fatalf("stale switch-cache service: %+v", s)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCombinedSwitchDirAndCache(t *testing.T) {
	cfg := DefaultConfig().WithSwitchDir(1024).WithSwitchCache(512)
	m := MustNew(cfg)
	// Dirty path: P0 writes, P1 reads -> switch directory intercept.
	m.Write(0, 0x40, nil)
	m.Run(0)
	m.Read(1, 0x40, nil)
	m.Run(0)
	// Clean path: P2 reads another block twice via different procs.
	m.Read(2, 0x2040, nil)
	m.Run(0)
	m.Read(9, 0x2040, nil)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Collect()
	if s.ReadCtoCSwitch != 1 {
		t.Fatalf("directory intercepts = %d; %+v", s.ReadCtoCSwitch, s)
	}
	if s.ReadCleanSwitch != 1 {
		t.Fatalf("cache serves = %d; %+v", s.ReadCleanSwitch, s)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStressCombinedFabric(t *testing.T) {
	cfg := DefaultConfig().WithSwitchDir(1024).WithSwitchCache(512)
	s := stress(t, cfg, 16, 300, 24, 31)
	if s.ReadCleanSwitch == 0 {
		t.Fatalf("switch cache never hit under sharing: %+v", s)
	}
	if s.SDirHits == 0 {
		t.Fatalf("switch directory never hit: %+v", s)
	}
}

func TestStressSwitchCacheOnly(t *testing.T) {
	stress(t, DefaultConfig().WithSwitchCache(256), 16, 300, 24, 32)
}

func TestCombinedImprovesOnDirAlone(t *testing.T) {
	// A read-heavy sharing mix: the cache should cut home reads beyond
	// what the directory alone does.
	run := func(cfg Config) Stats {
		m := MustNew(cfg)
		rng := sim.NewRNG(33)
		var issue func(p, left int)
		issue = func(p, left int) {
			if left == 0 {
				return
			}
			b := uint64(rng.Intn(64)) * 32 * 131
			if p == 0 && rng.Intn(4) == 0 {
				m.Write(p, b, func(sim.Cycle) { issue(p, left-1) })
			} else {
				m.Read(p, b, func(sim.Cycle) { issue(p, left-1) })
			}
		}
		for p := 0; p < 16; p++ {
			issue(p, 250)
		}
		if err := m.Run(1 << 34); err != nil {
			t.Fatal(err)
		}
		return m.Collect()
	}
	dirOnly := run(DefaultConfig().WithSwitchDir(1024))
	both := run(DefaultConfig().WithSwitchDir(1024).WithSwitchCache(512))
	if both.HomeReads >= dirOnly.HomeReads {
		t.Fatalf("combined fabric did not reduce home reads: %d vs %d", both.HomeReads, dirOnly.HomeReads)
	}
}
