package core

import (
	"fmt"
	"strings"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/xbar"
)

// TestDebugCanaries replays random-reference stress seeds that once
// hung the machine or broke coherence. Each row runs its own config,
// RNG seed, address span (in blocks 131 lines apart) and per-processor
// op count on all 16 processors, and must finish, quiesce and pass the
// invariant check. On failure the message carries the tail of the
// message and home-directory trace filtered to the row's watched
// block, to localize the protocol hole.
func TestDebugCanaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		seed  uint64
		span  int
		ops   int
		watch uint64
	}{
		// A read that never completed.
		{"stuck_read", func() Config { return DefaultConfig().WithSwitchDir(1024) }, 2, 24, 300, 0x72a0},
		// A slow, nearly full home that double-granted ownership.
		{"high_occupancy", func() Config {
			cfg := DefaultConfig().WithSwitchDir(512)
			cfg.Dir.DRAMCycles = 200
			cfg.Dir.OccCycles = 50
			cfg.Dir.PendingCap = 2
			return cfg
		}, 14, 8, 150, 0x6240},
		// A sharer missing from the home's map.
		{"unmapped_sharer", func() Config { return DefaultConfig().WithSwitchDir(1024) }, 2, 24, 300, 0x14780},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.CheckCoherence = true
			m := MustNew(cfg)
			var trace []string
			m.Net.Trace = func(ev xbar.Event, at sim.Cycle, msg *mesg.Message) {
				if msg.Addr&^31 == tc.watch {
					trace = append(trace, fmt.Sprintf("%8d %-14s %v fw=%v nd=%v sh=%v",
						at, ev, msg, msg.ForWrite, msg.NoData, msg.Sharers))
				}
			}
			for i := range m.Homes {
				i := i
				m.Homes[i].Debug = func(format string, args ...interface{}) {
					line := fmt.Sprintf(format, args...)
					if strings.Contains(line, fmt.Sprintf("%#x", tc.watch)) {
						trace = append(trace, fmt.Sprintf("%8d HOME M%d %s", m.Eng.Now(), i, line))
					}
				}
			}
			rng := sim.NewRNG(tc.seed)
			var issue func(p, left int)
			issue = func(p, left int) {
				if left == 0 {
					return
				}
				next := func() { issue(p, left-1) }
				addr := uint64(rng.Intn(tc.span)) * 32 * 131
				if rng.Intn(100) < 35 {
					m.Write(p, addr, func(sim.Cycle) { m.Eng.After(sim.Cycle(rng.Intn(8)+1), next) })
				} else {
					m.Read(p, addr, func(sim.Cycle) { m.Eng.After(sim.Cycle(rng.Intn(8)+1), next) })
				}
			}
			for p := 0; p < 16; p++ {
				issue(p, tc.ops)
			}
			runErr := m.Run(200_000_000)
			var invErr error
			if runErr == nil {
				invErr = m.CheckInvariants()
			}
			if runErr != nil || invErr != nil || !m.Quiesced() {
				tail := trace
				if len(tail) > 60 {
					tail = tail[len(tail)-60:]
				}
				t.Fatalf("run=%v invariants=%v quiesced=%v\n%s\ntrace tail for %#x:\n%s",
					runErr, invErr, m.Quiesced(), m.DumpStuck(), tc.watch, strings.Join(tail, "\n"))
			}
		})
	}
}
