package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"dresar/internal/core"
	"dresar/internal/sdir"
	"dresar/internal/topo"
	"dresar/internal/trace"
	"dresar/internal/tracesim"
	"dresar/internal/workload"
)

// Workload sizes. fft64 is the 64-node machine whose profile and
// figures the repository's scalability record holds; radix16 and the
// 4M-reference TPC-C trace run on the paper's 16-node 4x4 machine.
const (
	fftPoints   = 16384
	fftNodes    = 64
	fftRadix    = 8
	radixKeys   = 65536
	radixPasses = 4
	sdirEntries = 1024
	tpccRefs    = 4 << 20
)

// The committed record for fft64 (64 nodes, radix 8, 1K-entry switch
// directories): execution cycles, home-served cache-to-cache reads,
// and the switch-served share of all cache-to-cache reads.
const (
	fftPinCycles   = 387635
	fftPinHomeCtoC = 7444
	fftPinHitRate  = 0.6923
)

// simResult is one simulation's outcome.
type simResult struct {
	// stats is the whole simulated roll-up (core.Stats or
	// tracesim.Stats); two runs agree only if it compares equal.
	stats   any
	refs    uint64
	cycles  uint64
	readLat float64
	// layers holds the simulated per-layer counters.
	layers map[string]float64
}

// simInstance is one built simulator with its input, run once.
type simInstance interface {
	run() (simResult, error)
}

// simCase is one simulator workload. build makes a fresh instance;
// check turns on the model's own checkers, and a non-nil tracer wraps
// the public boundaries the benchmark can reach.
type simCase struct {
	name  string
	build func(seed uint64, check bool, tr *tracer) (simInstance, error)
	// pin checks a result against the committed record, if any.
	pin func(simResult) error
}

var simCases = []simCase{
	kernelCase("fft64", pinFFT),
	kernelCase("radix16", nil),
	{name: "tpcc-trace", build: buildTPCC},
}

func kernelCase(name string, pin func(simResult) error) simCase {
	build := func(seed uint64, check bool, tr *tracer) (simInstance, error) {
		cfg, w := kernelInput(name, seed)
		inst, err := buildCore(cfg, w, check, tr)
		if err != nil {
			return nil, err
		}
		return inst, nil
	}
	return simCase{name: name, build: build, pin: pin}
}

// kernelInput returns the machine and kernel of a deterministic
// execution-driven workload. The kernels have no random input, so the
// seed is ignored: every seed measures the same simulation.
func kernelInput(name string, _ uint64) (core.Config, workload.Workload) {
	cfg := core.DefaultConfig()
	switch name {
	case "fft64":
		cfg.Nodes, cfg.Radix = fftNodes, fftRadix
		return cfg.WithSwitchDir(sdirEntries), workload.NewFFT(fftPoints, fftNodes)
	case "radix16":
		return cfg.WithSwitchDir(sdirEntries), workload.NewRadix(radixKeys, radixPasses, cfg.Nodes)
	}
	panic("perfbench: no kernel workload " + name)
}

// tpccInput is the TPC-C trace configuration for a seed.
func tpccInput(seed uint64) trace.SynthConfig {
	cfg := trace.TPCC(tpccRefs)
	cfg.Seed = seed
	return cfg
}

func pinFFT(r simResult) error {
	s := r.stats.(core.Stats)
	hit := float64(s.ReadCtoCSwitch) / float64(s.CtoC())
	if s.Cycles != fftPinCycles || s.ReadCtoCHome != fftPinHomeCtoC || math.Abs(hit-fftPinHitRate) > 5e-5 {
		return fmt.Errorf("fft64 drifted from the committed record: cycles=%d homeCtoC=%d sdirHitRate=%.4f, want %d, %d, %.4f",
			s.Cycles, s.ReadCtoCHome, hit, fftPinCycles, fftPinHomeCtoC, fftPinHitRate)
	}
	return nil
}

// coreInstance is an execution-driven machine with its kernel driver.
type coreInstance struct {
	m     *core.Machine
	d     *workload.Driver
	check bool
	// fab is the switch-directory fabric the traced build installs
	// behind its timing Snooper (the machine's own SDir is nil then).
	fab *sdir.Fabric
}

func buildCore(cfg core.Config, w workload.Workload, check bool, tr *tracer) (*coreInstance, error) {
	inst := &coreInstance{check: check}
	cfg.CheckCoherence = check
	if tr != nil && cfg.SwitchDir != nil {
		tp, err := topo.New(cfg.Nodes, cfg.Radix)
		if err != nil {
			return nil, err
		}
		fab, err := sdir.New(tp, *cfg.SwitchDir)
		if err != nil {
			return nil, err
		}
		cfg.SwitchDir = nil
		cfg.Net.Snoop = &timedSnooper{inner: fab, t: tr, b: tr.boundary(bSnoop, 1)}
		inst.fab = fab
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		nb, hb := tr.boundary(bDeliver, 1), tr.boundary(bHandle, 1)
		for i := range m.Nodes {
			m.Net.AttachProc(i, tr.handler(m.Nodes[i].Deliver, nb))
			m.Net.AttachMem(i, tr.handler(m.Homes[i].Handle, hb))
		}
		w = &timedWorkload{Workload: w, t: tr, b: tr.boundary(bRefs, 1)}
	}
	d, err := workload.NewDriver(m, w)
	if err != nil {
		return nil, err
	}
	inst.m, inst.d = m, d
	return inst, nil
}

func (c *coreInstance) run() (simResult, error) {
	s, err := c.d.Run()
	if err != nil {
		return simResult{}, err
	}
	sd := c.sdirStats()
	if c.fab != nil {
		// The same roll-up core.Machine.Collect makes from its own
		// fabric.
		s.SDirHits = sd.Hits
		s.SDirInserts = sd.Inserts
		s.SDirRetries = sd.RetriesSent
		s.SDirEvictions = sd.Evictions
		s.SDirEntriesLost = sd.EntriesLost
		s.SDirPendingLost = sd.PendingLost
		s.SDirHomeFallbacks = sd.HomeFallbacks
	}
	if c.check {
		if err := c.m.CheckInvariants(); err != nil {
			return simResult{}, fmt.Errorf("coherence invariants: %w", err)
		}
	}
	net := c.m.Net.TotalStats()
	l := map[string]float64{
		"xbar.msgs":               float64(net.Sent),
		"xbar.flit_hops":          float64(net.FlitHops),
		"xbar.queue_wait_cycles":  float64(net.QueueWait),
		"sdir.hits":               float64(sd.Hits),
		"sdir.inserts":            float64(sd.Inserts),
		"sdir.invalidates":        float64(sd.Invalidates),
		"sdir.evictions":          float64(sd.Evictions),
		"sdir.transient_hits":     float64(sd.TransientHits),
		"sdir.port_delay_cycles":  float64(sd.PortDelayTotal),
		"sdir.hit_rate":           ratio(s.ReadCtoCSwitch, s.CtoC()),
		"node.read_misses":        float64(s.ReadMisses),
		"node.hit_rate":           1 - ratio(s.ReadMisses, s.Reads),
		"node.read_stall_cycles":  float64(s.ReadStall),
		"node.write_stall_cycles": float64(s.WriteStall),
	}
	for _, h := range c.m.Homes {
		l["dirctl.reads"] += float64(h.Stats.Reads)
		l["dirctl.ctoc_forwards"] += float64(h.Stats.HomeCtoCForwards)
		l["dirctl.busy_cycles"] += float64(h.Stats.BusyCycles)
		l["dirctl.retries"] += float64(h.Stats.Retries)
		l["dirctl.pending_peak"] = math.Max(l["dirctl.pending_peak"], float64(h.Stats.PendingPeak))
	}
	return simResult{stats: s, refs: s.Reads + s.Writes, cycles: uint64(s.Cycles),
		readLat: s.AvgReadLatency(), layers: l}, nil
}

// sdirStats reads whichever switch-directory fabric the machine runs.
func (c *coreInstance) sdirStats() sdir.Stats {
	switch {
	case c.fab != nil:
		return c.fab.TotalStats()
	case c.m.SDir != nil:
		return c.m.SDir.TotalStats()
	}
	return sdir.Stats{}
}

// traceInstance is the trace-driven simulator with its TPC-C source.
type traceInstance struct {
	s     *tracesim.Sim
	src   trace.Source
	check bool
}

func buildTPCC(seed uint64, check bool, tr *tracer) (simInstance, error) {
	s, err := tracesim.New(tracesim.DefaultConfig().WithSDir(sdirEntries))
	if err != nil {
		return nil, err
	}
	var src trace.Source = trace.NewSynth(tpccInput(seed))
	if tr != nil {
		// One call in 16 is timed: a record costs tens of ns, the
		// same as a pair of clock reads.
		src = &timedSource{inner: src, t: tr, b: tr.boundary(bNext, 16)}
	}
	return &traceInstance{s: s, src: src, check: check}, nil
}

func (t *traceInstance) run() (simResult, error) {
	st := t.s.Run(t.src)
	if t.s.Stopped() {
		return simResult{}, errors.New("tracesim: run stopped early")
	}
	if t.check {
		// The trace simulator has no coherence checker; check that its
		// counters partition the references.
		switch {
		case st.Refs != tpccRefs:
			return simResult{}, fmt.Errorf("tracesim consumed %d records, want %d", st.Refs, tpccRefs)
		case st.Reads+st.Writes != st.Refs:
			return simResult{}, fmt.Errorf("tracesim reads %d + writes %d != refs %d", st.Reads, st.Writes, st.Refs)
		case st.ReadHits+st.ReadMisses != st.Reads:
			return simResult{}, fmt.Errorf("tracesim hits %d + misses %d != reads %d", st.ReadHits, st.ReadMisses, st.Reads)
		case st.Clean+st.CtoC() != st.ReadMisses:
			return simResult{}, fmt.Errorf("tracesim clean %d + ctoc %d != misses %d", st.Clean, st.CtoC(), st.ReadMisses)
		}
	}
	l := map[string]float64{
		"tracesim.ctoc_home":   float64(st.CtoCHome),
		"tracesim.ctoc_switch": float64(st.CtoCSwitch),
		"tracesim.stale_sdir":  float64(st.StaleSDir),
	}
	return simResult{stats: st, refs: st.Refs, cycles: st.ExecCycles,
		readLat: st.AvgReadLatency(), layers: l}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// liveHeapMB is the heap retained after a forced collection while keep
// (the simulator) is still reachable.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
