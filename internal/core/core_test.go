package core

import (
	"fmt"
	"testing"

	"dresar/internal/check"
	"dresar/internal/sim"
)

func TestColdReadLatencyBreakdown(t *testing.T) {
	m := MustNew(DefaultConfig())
	var lat sim.Cycle
	m.Read(0, 0x40, func(l sim.Cycle) { lat = l })
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// L1+L2 lookup (9) + request to home + DRAM (46) + data reply.
	if lat < 100 || lat > 300 {
		t.Fatalf("cold read latency = %d, want O(150)", lat)
	}
	s := m.Collect()
	if s.ReadMisses != 1 || s.ReadClean != 1 || s.CtoC() != 0 {
		t.Fatalf("stats: %+v", s)
	}
	// Second read: cache hit, no new traffic.
	sent := m.Net.TotalStats().Sent
	m.Read(0, 0x40, func(l sim.Cycle) { lat = l })
	m.Run(0)
	if lat != 1 || m.Net.TotalStats().Sent != sent {
		t.Fatalf("hit lat=%d sent=%d->%d", lat, sent, m.Net.TotalStats().Sent)
	}
}

func TestProducerConsumerCtoCViaHome(t *testing.T) {
	m := MustNew(DefaultConfig())
	// Clean baseline: P8 reads an untouched block on the same page.
	var cleanLat sim.Cycle
	m.Read(8, 0x80, func(l sim.Cycle) { cleanLat = l })
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	m.Write(0, 0x40, nil)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// Cross-leaf dirty read: P8 is on a different leaf than owner P0.
	var lat sim.Cycle
	m.Read(8, 0x40, func(l sim.Cycle) { lat = l })
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Collect()
	if s.ReadCtoCHome != 1 || s.ReadCtoCSwitch != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.HomeCtoCForwards != 1 {
		t.Fatalf("home forwards = %d", s.HomeCtoCForwards)
	}
	if lat <= cleanLat {
		t.Fatalf("dirty read latency (%d) should exceed clean (%d)", lat, cleanLat)
	}
	if !m.Quiesced() {
		t.Fatal("not quiesced")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchDirectoryInterceptsSecondReader(t *testing.T) {
	m := MustNew(DefaultConfig().WithSwitchDir(1024))
	// P0 writes: the WriteReply installs switch-directory entries.
	m.Write(0, 0x40, nil)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// P1 reads: the ReadReq should be intercepted at a switch and
	// re-routed to P0 without touching the home directory again.
	var lat sim.Cycle
	m.Read(1, 0x40, func(l sim.Cycle) { lat = l })
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Collect()
	if s.ReadCtoCSwitch != 1 {
		t.Fatalf("switch-served reads = %d; stats %+v", s.ReadCtoCSwitch, s)
	}
	if s.HomeCtoCForwards != 0 {
		t.Fatalf("home forwards = %d, want 0 (intercepted)", s.HomeCtoCForwards)
	}
	if s.SDirHits != 1 || s.SDirInserts == 0 {
		t.Fatalf("sdir stats: %+v", s)
	}
	if !m.Quiesced() {
		t.Fatal("not quiesced")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = lat
}

func TestSwitchDirectoryFasterThanHome(t *testing.T) {
	run := func(cfg Config) sim.Cycle {
		m := MustNew(cfg)
		m.Write(0, 0x40, nil)
		m.Run(0)
		var lat sim.Cycle
		m.Read(1, 0x40, func(l sim.Cycle) { lat = l })
		m.Run(0)
		return lat
	}
	base := run(DefaultConfig())
	sd := run(DefaultConfig().WithSwitchDir(1024))
	if sd >= base {
		t.Fatalf("switch-dir dirty read (%d) not faster than base (%d)", sd, base)
	}
}

func TestWriteAfterInterceptedRead(t *testing.T) {
	m := MustNew(DefaultConfig().WithSwitchDir(1024))
	m.Cfg.CheckCoherence = true
	m.lastSeen = map[uint64]uint64{}
	m.Write(0, 0x40, nil)
	m.Run(0)
	m.Read(1, 0x40, nil) // intercepted CtoC
	m.Run(0)
	// P2 writes: must invalidate both sharers, then own the block.
	m.Write(2, 0x40, nil)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var lat sim.Cycle
	m.Read(3, 0x40, func(l sim.Cycle) { lat = l })
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := m.Collect()
	if s.CtoC() < 2 {
		t.Fatalf("stats: %+v", s)
	}
	_ = lat
}

// stress runs a randomized workload over a small hot block set and
// verifies full coherence. This is the primary whole-protocol test.
func stress(t *testing.T, cfg Config, procs, opsPerProc, blocks int, seed uint64) Stats {
	t.Helper()
	cfg.CheckCoherence = true
	m := MustNew(cfg)
	// Attach the protocol conformance monitor: message-level liveness
	// rules checked at quiesce, independent of internal state.
	mon := check.New()
	m.Net.Trace = mon.Observe
	rng := sim.NewRNG(seed)
	var issue func(p int, left int)
	issue = func(p int, left int) {
		if left == 0 {
			return
		}
		addr := uint64(rng.Intn(blocks)) * 32 * 131 // spread across pages
		if rng.Intn(100) < 35 {
			m.Write(p, addr, func(stall sim.Cycle) {
				m.Eng.After(sim.Cycle(rng.Intn(8)+1), func() { issue(p, left-1) })
			})
		} else {
			m.Read(p, addr, func(lat sim.Cycle) {
				m.Eng.After(sim.Cycle(rng.Intn(8)+1), func() { issue(p, left-1) })
			})
		}
	}
	for p := 0; p < procs; p++ {
		issue(p, opsPerProc)
	}
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("stress run: %v\n%v", err, m.Collect())
	}
	if !m.Quiesced() {
		t.Fatalf("not quiesced after drain:\n%s", m.DumpStuck())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v\n%v", err, m.Collect())
	}
	if err := mon.AtQuiesce(); err != nil {
		t.Fatalf("%v", err)
	}
	s := m.Collect()
	if s.Reads != uint64(procs*opsPerProc)*65/100 {
		// Approximate split: just confirm everything completed.
		if s.Reads+s.Writes != uint64(procs*opsPerProc) {
			t.Fatalf("lost operations: reads=%d writes=%d want %d", s.Reads, s.Writes, procs*opsPerProc)
		}
	}
	return s
}

func TestStressBaseSystem(t *testing.T) {
	stress(t, DefaultConfig(), 16, 300, 24, 1)
}

func TestStressSwitchDirRetryPolicy(t *testing.T) {
	s := stress(t, DefaultConfig().WithSwitchDir(1024), 16, 300, 24, 2)
	if s.SDirHits == 0 {
		t.Fatalf("switch directory never hit under contention: %+v", s)
	}
}

func TestStressSwitchDirBitVectorPolicy(t *testing.T) {
	cfg := DefaultConfig().WithSwitchDir(1024)
	cfg.SwitchDir.Policy = 1 // PolicyBitVector
	stress(t, cfg, 16, 300, 24, 3)
}

func TestStressSwitchDirTinyDirectory(t *testing.T) {
	// Heavy eviction pressure on a 16-entry directory.
	stress(t, DefaultConfig().WithSwitchDir(16), 16, 200, 64, 4)
}

func TestStressSwitchDirPendingBuffer(t *testing.T) {
	cfg := DefaultConfig().WithSwitchDir(1024)
	cfg.SwitchDir.PendingEntries = 8
	stress(t, cfg, 16, 300, 24, 5)
}

func TestStressSingleHotBlock(t *testing.T) {
	// Maximum contention: every processor hammers one block.
	stress(t, DefaultConfig().WithSwitchDir(256), 16, 150, 1, 6)
}

func TestStressSmallBuffersBackpressure(t *testing.T) {
	cfg := DefaultConfig().WithSwitchDir(1024)
	cfg.Net.VCQueueMsgs = 1
	stress(t, cfg, 16, 200, 16, 7)
}

// TestStressBigMachines drives the full coherence protocol (checking
// on) across the machine sizes of the scalability sweep. 64 and 256
// nodes exercise the s=2 and s=3 butterflies; 1024 nodes (s=4) is the
// big-machine smoke test and is skipped under -short. Node IDs ≥ 64
// also exercise the NodeSet spill words in the sharer maps.
func TestStressBigMachines(t *testing.T) {
	cases := []struct {
		nodes, radix int
		opsPerProc   int
		blocks       int
		seed         uint64
		short        bool // run under -short too
	}{
		{nodes: 64, radix: 8, opsPerProc: 100, blocks: 48, seed: 8, short: true},
		{nodes: 256, radix: 8, opsPerProc: 40, blocks: 96, seed: 9, short: true},
		{nodes: 1024, radix: 8, opsPerProc: 12, blocks: 128, seed: 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dnodes", tc.nodes), func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skipf("skipping %d-node stress under -short", tc.nodes)
			}
			cfg := DefaultConfig().WithSwitchDir(1024)
			cfg.Nodes, cfg.Radix = tc.nodes, tc.radix
			s := stress(t, cfg, tc.nodes, tc.opsPerProc, tc.blocks, tc.seed)
			if s.SDirHits == 0 {
				t.Errorf("%d nodes: switch directory never hit", tc.nodes)
			}
		})
	}
}

func TestSwitchDirReducesHomeCtoCUnderSharing(t *testing.T) {
	// Producer-consumer pattern across many blocks: the switch
	// directory must cut home-node CtoC forwards substantially.
	run := func(cfg Config) Stats {
		m := MustNew(cfg)
		rng := sim.NewRNG(9)
		const blocks = 64
		var issue func(p, left int)
		issue = func(p, left int) {
			if left == 0 {
				return
			}
			b := uint64(rng.Intn(blocks)) * 32 * 131
			if p%4 == 0 { // a quarter of the processors produce
				m.Write(p, b, func(sim.Cycle) { issue(p, left-1) })
			} else {
				m.Read(p, b, func(sim.Cycle) { issue(p, left-1) })
			}
		}
		for p := 0; p < 16; p++ {
			issue(p, 250)
		}
		if err := m.Run(200_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Collect()
	}
	base := run(DefaultConfig())
	sd := run(DefaultConfig().WithSwitchDir(1024))
	if base.HomeCtoCForwards == 0 {
		t.Fatal("workload produced no CtoC traffic")
	}
	if sd.HomeCtoCForwards >= base.HomeCtoCForwards {
		t.Fatalf("switch dir did not reduce home CtoC: base=%d sd=%d (sdHits=%d)",
			base.HomeCtoCForwards, sd.HomeCtoCForwards, sd.SDirHits)
	}
}

func TestProfileAccumulates(t *testing.T) {
	m := MustNew(DefaultConfig())
	m.Write(0, 0x40, nil)
	m.Run(0)
	m.Read(1, 0x40, nil)
	m.Run(0)
	m.Read(2, 0x1040, nil)
	m.Run(0)
	if m.Profile.Len() != 2 {
		t.Fatalf("profile blocks = %d", m.Profile.Len())
	}
	miss, ctoc := m.Profile.Totals()
	if miss != 2 || ctoc != 1 {
		t.Fatalf("profile totals = %d, %d", miss, ctoc)
	}
}

func TestConfigErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 15
	if _, err := New(cfg); err == nil {
		t.Fatal("bad topology accepted")
	}
	cfg = DefaultConfig().WithSwitchDir(24)
	if _, err := New(cfg); err == nil {
		t.Fatal("bad sdir geometry accepted")
	}
}

func TestHomeMapping(t *testing.T) {
	m := MustNew(DefaultConfig())
	if m.Home(0) != 0 || m.Home(4096) != 1 || m.Home(4096*16) != 0 {
		t.Fatal("page interleaving broken")
	}
}
