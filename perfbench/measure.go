package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

var errStatsDiffer = errors.New("simulated stats differ")

// sameStats is the identity check between two runs of one simulation:
// every simulated statistic must be equal, bit for bit.
func sameStats(want, got simResult) error {
	if want.stats != got.stats {
		return fmt.Errorf("%w:\n  want %+v\n  got  %+v", errStatsDiffer, want.stats, got.stats)
	}
	return nil
}

// timedBuild builds a fresh instance after a forced collection, timing
// the build alone.
func timedBuild(c simCase, seed uint64, tr *tracer) (simInstance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := c.build(seed, false, tr)
	return inst, time.Since(t0).Seconds(), err
}

// measureSim times whole simulations for the window: each builds a
// fresh machine (timed as set-up) and runs it (timed as one job).
func measureSim(c simCase, o opts) *report {
	r := newReport(c.name)
	ref, ok := checkSim(r, c, o.seed)
	if !ok {
		return r
	}
	var setups, secs, rates, heaps []float64
	start := time.Now()
	for len(secs) == 0 || time.Since(start) < o.dur {
		r.attempted++
		inst, setup, err := timedBuild(c, o.seed, nil)
		if err != nil {
			r.failed++
			r.fail("build: %v", err)
			return r
		}
		setups = append(setups, setup)
		t0 := time.Now()
		res, err := inst.run()
		d := time.Since(t0).Seconds()
		if err != nil {
			r.failed++
			r.fail("run %d: %v", len(secs)+1, err)
			return r
		}
		secs = append(secs, d)
		rates = append(rates, float64(res.refs)/d)
		fmt.Printf("# run %d: setup %.2f ms, run %.1f ms\n", len(secs), setup*1e3, d*1e3)
		heaps = append(heaps, liveHeapMB(inst))
		if err := sameStats(ref, res); err != nil {
			r.failed++
			r.fail("run %d against the check run: %v", len(secs), err)
		}
	}
	for len(setups) < minSetups {
		_, setup, err := timedBuild(c, o.seed, nil)
		if err != nil {
			r.fail("build: %v", err)
			break
		}
		setups = append(setups, setup)
	}

	n := len(secs)
	var total float64
	for _, s := range secs {
		total += s
	}
	r.metrics["setup_s"] = sample{median(setups), len(setups)}
	r.metrics["refs_per_s"] = sample{median(rates), n}
	r.metrics["jobs_per_s"] = sample{float64(n) / total, n}
	r.metrics["job_p50_ms"] = sample{median(secs) * 1e3, n}
	r.metrics["job_p99_ms"] = sample{tail(secs) * 1e3, n}
	r.extra["job_p99_pct"] = sample{tailPct(n), n}
	r.metrics["sim_cycles"] = sample{float64(ref.cycles), n}
	r.metrics["read_lat_cycles"] = sample{ref.readLat, n}
	r.metrics["live_heap_mb"] = sample{median(heaps), len(heaps)}
	r.extra["fail_frac"] = sample{float64(r.failed) / float64(r.attempted), r.attempted}
	return r
}

// checkSim is the output check, run before the timed window (it also
// warms the heap): a run with the model's checkers on (the coherence
// shadow checker and the quiesce-time invariants for the machine;
// counter partition checks for the trace simulator) must pass and
// match the committed record where one is pinned. Every later run
// must reproduce its simulated stats.
func checkSim(r *report, c simCase, seed uint64) (simResult, bool) {
	r.attempted++
	inst, err := c.build(seed, true, nil)
	var res simResult
	if err == nil {
		res, err = inst.run()
	}
	if err == nil && c.pin != nil {
		err = c.pin(res)
	}
	if err != nil {
		r.failed++
		r.fail("check run: %v", err)
		return res, false
	}
	return res, true
}

// traceSim alternates untraced and traced runs for the window. Every
// traced run must reproduce the untraced simulated stats exactly; the
// traced runs are CPU-profiled for the package split.
func traceSim(c simCase, o opts) *report {
	r := newReport(c.name)
	ref, ok := checkSim(r, c, o.seed)
	if !ok {
		return r
	}
	var plain, traced []float64
	var last simResult
	var gcs, allocMB float64
	total := newTracer()
	split := newProfileSplit()
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < o.dur {
		r.attempted += 2
		inst, _, err := timedBuild(c, o.seed, nil)
		if err != nil {
			r.failed += 2
			r.fail("build: %v", err)
			return r
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := inst.run()
		plain = append(plain, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.failed += 2
			r.fail("untraced run: %v", err)
			return r
		}
		if len(plain) == 1 {
			gcs = float64(m1.NumGC - m0.NumGC)
			allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		}
		if err := sameStats(ref, res); err != nil {
			r.failed++
			r.fail("untraced run %d against the check run: %v", len(plain), err)
		}

		tr := newTracer()
		tinst, _, err := timedBuild(c, o.seed, tr)
		if err != nil {
			r.failed++
			r.fail("traced build: %v", err)
			return r
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.failed++
			r.fail("cpu profile: %v", err)
			return r
		}
		t0 = time.Now()
		tres, err := tinst.run()
		traced = append(traced, time.Since(t0).Seconds())
		pprof.StopCPUProfile()
		if err == nil {
			err = sameStats(ref, tres)
		}
		if err != nil {
			r.failed++
			r.fail("traced run %d against the untraced run: %v", len(traced), err)
			return r
		}
		if err := split.add(prof.Bytes()); err != nil {
			r.fail("%v", err)
		}
		if err := writeProfile(o, c.name, len(traced), prof.Bytes()); err != nil {
			r.fail("%v", err)
		}
		total.merge(tr)
		last = tres
	}
	if err := writeTrace(o, c.name, len(traced), total, split); err != nil {
		r.fail("%v", err)
	}

	n := len(traced)
	perRun := func(b string) float64 { return total.calls(b) / float64(n) }
	for _, d := range perLayer {
		r.metrics[d.name] = sample{last.layers[d.name], n}
	}
	layerShares(r, split, n)
	r.metrics["bench.trace_overhead"] = sample{median(traced) / median(plain), n}
	r.metrics["runtime.gc_count"] = sample{gcs, 1}
	r.metrics["runtime.alloc_mb"] = sample{allocMB, 1}
	r.metrics["sdir.snoops"] = sample{perRun(bSnoop), n}
	r.metrics["sdir.snoop_ns"] = sample{total.meanNS(bSnoop), n}
	r.metrics["dirctl.intakes"] = sample{perRun(bHandle), n}
	r.metrics["node.deliveries"] = sample{perRun(bDeliver), n}
	r.metrics["node.deliver_ns"] = sample{total.meanNS(bDeliver), n}
	r.metrics["workload.gen_ms"] = sample{total.totalNS(bRefs) / float64(n) / 1e6, n}
	if recs := perRun(bNext); recs > 0 {
		// The last call of each run reports the end of the trace.
		r.metrics["trace.records"] = sample{recs - 1, n}
	}
	r.metrics["trace.gen_ms"] = sample{total.totalNS(bNext) / float64(n) / 1e6, n}
	r.extra["fail_frac"] = sample{float64(r.failed) / float64(r.attempted), r.attempted}
	return r
}

// profiledLayers are the layers whose self share the CPU profile gives.
var profiledLayers = []string{"xbar", "sim", "runtime", "topo", "sdir", "dirctl", "node",
	"core", "cache", "workload", "trace", "tracesim", "serve"}

func layerShares(r *report, split *profileSplit, n int) {
	for _, l := range profiledLayers {
		r.metrics[l+".self_share"] = sample{split.share(l), n}
	}
	if split.total > 0 {
		r.metrics["runtime.copy_share"] = sample{split.copy / split.total, n}
	}
}

func servedDir(o opts) string {
	return filepath.Join(o.out, fmt.Sprintf("served-%d", os.Getpid()))
}

// countJobs adds a round's jobs to the report: a job fails on an
// error or a wrong result, and every shed or throttled submission
// counts as a failure too.
func countJobs(r *report, rr roundResult) {
	r.attempted += len(rr.jobs)
	for _, j := range rr.jobs {
		if j.err != nil {
			r.failed++
			r.fail("%v", j.err)
		}
	}
	for _, t := range rr.stats.Tenants {
		if n := int(t.Shed + t.Throttled); n > 0 {
			r.failed += n
			r.fail("%d submissions shed or throttled", n)
		}
	}
}

// servedPool accumulates the rounds of one served measurement. The
// latency percentiles pool every job of every round: a round's p50
// sits between two modes (hits with the other client blocked on a
// miss, and hits contending with the other client for the journal),
// so pooling the rounds' mixtures is steadier than taking the median
// of per-round percentiles.
type servedPool struct {
	setups, heaps []float64
	lat, hitLat   []float64
	loop, simRefs float64
	jobs          int
	seen          map[int]bool // specs requested
}

func (p *servedPool) add(list []int, rr roundResult) {
	var lat []float64
	for i, j := range rr.jobs {
		p.seen[list[i]] = true
		if j.err == nil {
			lat = append(lat, j.ms)
			if j.cached {
				p.hitLat = append(p.hitLat, j.ms)
			}
		}
	}
	p.lat = append(p.lat, lat...)
	p.setups = append(p.setups, rr.setup.Seconds())
	p.heaps = append(p.heaps, rr.heapMB)
	p.loop += rr.loop.Seconds()
	p.simRefs += rr.simRefs
	p.jobs += len(rr.jobs)
	fmt.Printf("# round %d: setup %.2f ms, loop %.0f ms, %d jobs, p50 %.3f ms, p99 %.1f ms\n",
		len(p.heaps)-1, rr.setup.Seconds()*1e3, rr.loop.Seconds()*1e3, len(rr.jobs), median(lat), percentile(lat, 99))
}

// measureServed runs rounds of job lists against fresh servers for the
// window and pools their jobs. The reference answers are computed
// first, outside the window.
func measureServed(o opts) *report {
	r := newReport("served")
	want, err := referenceAnswers()
	if err != nil {
		r.fail("reference answers: %v", err)
		return r
	}
	ctx := context.Background()
	p := servedPool{seen: map[int]bool{}}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < o.dur; round++ {
		list := servedJobs(o.seed, round)
		rr, err := servedRound(ctx, servedDir(o), list, want, nil)
		if err != nil {
			r.fail("round %d: %v", round, err)
			return r
		}
		countJobs(r, rr)
		p.add(list, rr)
	}
	for len(p.setups) < minSetups {
		s, err := startServed(servedDir(o))
		if err == nil {
			err = s.stop(ctx)
		}
		if err != nil {
			r.fail("server start: %v", err)
			return r
		}
		p.setups = append(p.setups, s.setup.Seconds())
	}
	// The simulated outputs of the served job set: each distinct
	// spec's cycles summed, its mean read latency averaged.
	var cycles, readLat float64
	for i := range p.seen {
		cycles += want[i].cycles
		readLat += want[i].readLat / float64(len(p.seen))
	}
	rounds := len(p.heaps)
	r.metrics["setup_s"] = sample{median(p.setups), len(p.setups)}
	r.metrics["refs_per_s"] = sample{p.simRefs / p.loop, p.jobs}
	r.metrics["jobs_per_s"] = sample{float64(p.jobs) / p.loop, p.jobs}
	r.metrics["job_p50_ms"] = sample{median(p.lat), len(p.lat)}
	r.metrics["job_p99_ms"] = sample{tail(p.lat), len(p.lat)}
	r.extra["job_p99_pct"] = sample{tailPct(len(p.lat)), len(p.lat)}
	r.metrics["sim_cycles"] = sample{cycles, len(p.seen)}
	r.metrics["read_lat_cycles"] = sample{readLat, len(p.seen)}
	r.metrics["live_heap_mb"] = sample{median(p.heaps), rounds}
	r.extra["fail_frac"] = sample{float64(r.failed) / float64(r.attempted), r.attempted}
	r.extra["hit_p50_ms"] = sample{median(p.hitLat), len(p.hitLat)}
	return r
}

// traceServed alternates untraced and traced rounds for the window.
// The traced rounds time every client call and are CPU-profiled.
func traceServed(o opts) *report {
	r := newReport("served")
	want, err := referenceAnswers()
	if err != nil {
		r.fail("reference answers: %v", err)
		return r
	}
	ctx := context.Background()
	var plain, traced, hitLat []float64
	var gcs, allocMB, hits, lookups, shed, appends float64
	total := newTracer()
	split := newProfileSplit()
	start := time.Now()
	// Pair k runs job list k untraced, then traced.
	for k := 0; k == 0 || time.Since(start) < o.dur; k++ {
		list := servedJobs(o.seed, k)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rr, err := servedRound(ctx, servedDir(o), list, want, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.fail("round %d: %v", k, err)
			return r
		}
		countJobs(r, rr)
		plain = append(plain, rr.loop.Seconds())
		if len(plain) == 1 {
			gcs = float64(m1.NumGC - m0.NumGC)
			allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		}

		tracers := make([]*tracer, servedClients)
		for i := range tracers {
			tracers[i] = newTracer()
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.fail("cpu profile: %v", err)
			return r
		}
		rr, err = servedRound(ctx, servedDir(o), list, want, tracers)
		pprof.StopCPUProfile()
		if err != nil {
			r.fail("traced round %d: %v", k, err)
			return r
		}
		countJobs(r, rr)
		traced = append(traced, rr.loop.Seconds())
		for _, t := range tracers {
			total.merge(t)
		}
		for _, j := range rr.jobs {
			if j.err == nil && j.cached {
				hitLat = append(hitLat, j.ms)
			}
		}
		hits += float64(rr.stats.Cache.Hits)
		lookups += float64(rr.stats.Cache.Hits + rr.stats.Cache.Misses)
		appends += float64(rr.stats.Journal.Appends)
		for _, t := range rr.stats.Tenants {
			shed += float64(t.Shed)
		}
		if err := split.add(prof.Bytes()); err != nil {
			r.fail("%v", err)
		}
		if err := writeProfile(o, "served", len(traced), prof.Bytes()); err != nil {
			r.fail("%v", err)
		}
	}
	if err := writeTrace(o, "served", len(traced), total, split); err != nil {
		r.fail("%v", err)
	}
	n := len(traced)
	p50 := func(b string) float64 {
		if bd := total.bounds[b]; bd != nil {
			return median(bd.durs)
		}
		return 0
	}
	for _, d := range perLayer {
		r.metrics[d.name] = sample{0, n}
	}
	layerShares(r, split, n)
	r.metrics["bench.trace_overhead"] = sample{median(traced) / median(plain), n}
	r.metrics["runtime.gc_count"] = sample{gcs, 1}
	r.metrics["runtime.alloc_mb"] = sample{allocMB, 1}
	r.metrics["serve.submit_ms"] = sample{p50(bSubmit), n}
	r.metrics["serve.result_ms"] = sample{p50(bResult), n}
	r.metrics["serve.hit_p50_ms"] = sample{median(hitLat), len(hitLat)}
	r.metrics["serve.cache_hit_rate"] = sample{hits / lookups, n}
	r.metrics["serve.shed"] = sample{shed / float64(n), n}
	r.metrics["serve.journal_appends"] = sample{appends / float64(n), n}
	r.extra["fail_frac"] = sample{float64(r.failed) / float64(r.attempted), r.attempted}
	return r
}
