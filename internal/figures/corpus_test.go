package figures

import (
	"testing"

	"dresar/internal/core"
	"dresar/internal/trace"
	"dresar/internal/workload"
)

// corpusWorkloads builds the pinned corpus: the five scientific kernels
// at test scale plus a synthetic commercial trace replayed through the
// execution driver.
func corpusWorkloads(t *testing.T) map[string]func() workload.Workload {
	t.Helper()
	return map[string]func() workload.Workload{
		"fft":   func() workload.Workload { return workload.NewFFT(4096, 16) },
		"tc":    func() workload.Workload { return workload.NewTC(64, 16) },
		"sor":   func() workload.Workload { return workload.NewSOR(128, 3, 16) },
		"fwa":   func() workload.Workload { return workload.NewFWA(64, 16) },
		"gauss": func() workload.Workload { return workload.NewGauss(64, 16) },
		"tpcc": func() workload.Workload {
			w, err := workload.FromTrace("tpcc", 16, trace.NewSynth(trace.TPCC(20000)), 20000)
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
}

// corpusPin is one workload's expected outcome: execution time, total
// read latency, messages injected, and the Figure 2 block-profile
// totals (misses, CtoC transfers).
type corpusPin struct {
	cfg, app      string
	cycles        uint64
	readLat       uint64
	netSent       uint64
	misses, ctocs uint64
}

// corpusPins were recorded with the sharded engine still in the tree,
// where every row was also checked cycle-identical at 2, 4 and 8
// workers.
var corpusPins = []corpusPin{
	{"base", "fft", 176920, 2149067, 50688, 7808, 5760},
	{"base", "fwa", 1622858, 20093447, 69056, 16384, 1008},
	{"base", "gauss", 389977, 3426911, 16056, 6464, 540},
	{"base", "sor", 152490, 1926042, 58496, 9856, 5280},
	{"base", "tc", 310126, 3177914, 8632, 2048, 126},
	{"base", "tpcc", 140792, 2100358, 31618, 10591, 227},
	{"sdir", "fft", 135173, 1684737, 44928, 7808, 5760},
	{"sdir", "fwa", 1540203, 18385405, 69716, 16384, 1598},
	{"sdir", "gauss", 347313, 2852133, 16202, 6464, 678},
	{"sdir", "sor", 134178, 1409508, 53221, 9856, 5280},
	{"sdir", "tc", 224540, 1847808, 9703, 2048, 189},
	{"sdir", "tpcc", 138917, 2076308, 31497, 10589, 229},
}

// TestSerialCorpusPins runs every corpus workload on the base and the
// 1K-entry switch-directory machine with the coherence checker on, and
// pins each run's statistics. Any change to same-cycle event order, or
// to the model's timing, moves one of these numbers and fails the
// workload by name.
func TestSerialCorpusPins(t *testing.T) {
	cfgs := map[string]core.Config{
		"base": core.DefaultConfig(),
		"sdir": core.DefaultConfig().WithSwitchDir(1024),
	}
	workloads := corpusWorkloads(t)
	for _, pin := range corpusPins {
		pin := pin
		t.Run(pin.cfg+"/"+pin.app, func(t *testing.T) {
			cfg := cfgs[pin.cfg]
			cfg.CheckCoherence = true
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := workload.NewDriver(m, workloads[pin.app]())
			if err != nil {
				t.Fatal(err)
			}
			s, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			misses, ctocs := m.Profile.Totals()
			got := corpusPin{pin.cfg, pin.app, uint64(s.Cycles), uint64(s.ReadLatency), s.NetSent, misses, ctocs}
			if got != pin {
				t.Errorf("stats moved:\n got: %+v\nwant: %+v", got, pin)
			}
		})
	}
}
