package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"dresar/internal/check"
	"dresar/internal/mesg"
	"dresar/internal/sdir"
	"dresar/internal/sim"
	"dresar/internal/xbar"
)

// TestFuzzProtocol runs many randomized stress campaigns across the
// configuration space — machine sizes, directory sizes, policies,
// buffer depths, controller speeds — each validated by the coherence
// checker, the quiesce invariants, and the protocol conformance
// monitor. The default budget keeps CI fast; set DRESAR_FUZZ_SEEDS to
// run longer campaigns (e.g. DRESAR_FUZZ_SEEDS=500).
func TestFuzzProtocol(t *testing.T) {
	seeds := 24
	if v := os.Getenv("DRESAR_FUZZ_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("DRESAR_FUZZ_SEEDS: %v", err)
		}
		seeds = n
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		rng := sim.NewRNG(uint64(seed) * 2654435761)
		cfg := DefaultConfig()
		// Random machine shape.
		if rng.Intn(4) == 0 {
			cfg.Nodes, cfg.Radix = 64, 8
		} else if rng.Intn(3) == 0 {
			cfg.Radix = 8 // bundled 16-node layout
		}
		// Random fabric.
		switch rng.Intn(4) {
		case 0: // base
		case 1:
			cfg = cfg.WithSwitchDir([]int{16, 64, 256, 1024}[rng.Intn(4)])
			cfg.SwitchDir.Policy = sdir.Policy(rng.Intn(2))
		case 2:
			cfg = cfg.WithSwitchDir(512)
			cfg.SwitchDir.PendingEntries = rng.Intn(16)
		default:
			cfg = cfg.WithSwitchDir(256).WithSwitchCache(128)
		}
		// Random pressure knobs.
		cfg.Net.VCQueueMsgs = 1 + rng.Intn(4)
		cfg.Dir.DRAMCycles = sim.Cycle(20 + rng.Intn(200))
		cfg.Dir.OccCycles = sim.Cycle(2 + rng.Intn(50))
		cfg.Dir.PendingCap = 1 + rng.Intn(8)
		cfg.Node.OutstandingWrites = 1 + rng.Intn(8)
		cfg.CheckCoherence = true

		m := MustNew(cfg)
		mon := check.New()
		m.Net.Trace = mon.Observe
		// Optional deep trace for one block (debugging):
		// DRESAR_FUZZ_WATCH=0x13720 DRESAR_FUZZ_SEED_ONLY=123
		var deepTrace []string
		if w := os.Getenv("DRESAR_FUZZ_WATCH"); w != "" {
			watch, _ := strconv.ParseUint(w, 0, 64)
			m.Net.Trace = func(ev xbar.Event, at sim.Cycle, msg *mesg.Message) {
				mon.Observe(ev, at, msg)
				if msg.Addr&^31 == watch {
					deepTrace = append(deepTrace, fmt.Sprintf("%8d %-12s %v fw=%v nd=%v sh=%v d=%d", at, ev, msg, msg.ForWrite, msg.NoData, msg.Sharers, msg.Data))
				}
			}
			for i := range m.Homes {
				i := i
				m.Homes[i].Debug = func(format string, args ...interface{}) {
					line := fmt.Sprintf(format, args...)
					if strings.Contains(line, fmt.Sprintf("%#x", watch)) {
						deepTrace = append(deepTrace, fmt.Sprintf("%8d HOME M%d %s", m.Eng.Now(), i, line))
					}
				}
			}
		}
		if so := os.Getenv("DRESAR_FUZZ_SEED_ONLY"); so != "" {
			if n, _ := strconv.Atoi(so); n != seed {
				continue
			}
		}
		defer func() {
			if t.Failed() && len(deepTrace) > 0 {
				tail := deepTrace
				if len(tail) > 120 {
					tail = tail[len(tail)-120:]
				}
				t.Logf("deep trace tail:\n%s", strings.Join(tail, "\n"))
			}
		}()
		blocks := 1 + rng.Intn(32)
		writePct := 10 + rng.Intn(80)
		var issue func(p, left int)
		issue = func(p, left int) {
			if left == 0 {
				return
			}
			addr := uint64(rng.Intn(blocks)) * 32 * 131
			if rng.Intn(100) < writePct {
				m.Write(p, addr, func(sim.Cycle) { issue(p, left-1) })
			} else {
				m.Read(p, addr, func(sim.Cycle) { issue(p, left-1) })
			}
		}
		ops := 40 + rng.Intn(120)
		for p := 0; p < cfg.Nodes; p++ {
			issue(p, ops)
		}
		if err := m.Run(1 << 34); err != nil {
			t.Fatalf("seed %d (%+v): %v\n%s", seed, cfgSummary(cfg), err, m.DumpStuck())
		}
		if !m.Quiesced() {
			t.Fatalf("seed %d (%+v): not quiesced\n%s", seed, cfgSummary(cfg), m.DumpStuck())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfgSummary(cfg), err)
		}
		if err := mon.AtQuiesce(); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfgSummary(cfg), err)
		}
	}
}

func cfgSummary(cfg Config) string {
	s := "nodes=" + strconv.Itoa(cfg.Nodes) + " radix=" + strconv.Itoa(cfg.Radix)
	if cfg.SwitchDir != nil {
		s += " sdir=" + strconv.Itoa(cfg.SwitchDir.Entries)
	}
	if cfg.SwitchCache != nil {
		s += " swcache=" + strconv.Itoa(cfg.SwitchCache.Entries)
	}
	return s
}
