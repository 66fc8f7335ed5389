package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dresar/internal/core"
	"dresar/internal/trace"
	"dresar/internal/tracesim"
	"dresar/internal/workload"
)

func traceHead(seed uint64, n int) []trace.Rec {
	src := trace.NewSynth(tpccInput(seed))
	out := make([]trace.Rec, 0, n)
	for len(out) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestInputsFollowSeed(t *testing.T) {
	if !reflect.DeepEqual(traceHead(7, 20000), traceHead(7, 20000)) {
		t.Error("tpcc-trace: the same seed generated different traces")
	}
	if reflect.DeepEqual(traceHead(7, 20000), traceHead(8, 20000)) {
		t.Error("tpcc-trace: different seeds generated the same trace")
	}
	if !reflect.DeepEqual(servedJobs(7, 0), servedJobs(7, 0)) {
		t.Error("served: the same seed generated different job lists")
	}
	if reflect.DeepEqual(servedJobs(7, 0), servedJobs(8, 0)) {
		t.Error("served: different seeds generated the same job list")
	}
	if reflect.DeepEqual(servedJobs(7, 0), servedJobs(7, 1)) {
		t.Error("served: two rounds of one seed generated the same job list")
	}
}

// TestServedMixCoversEverySpec pins what keeps the served metrics
// steady across seeds: every round asks for all 25 specs, so the set
// of cache misses, and with it sim_cycles and read_lat_cycles, is the
// same for every seed.
func TestServedMixCoversEverySpec(t *testing.T) {
	n := len(servedApps) * len(servedSizes)
	for seed := uint64(1); seed <= 20; seed++ {
		seen := map[int]bool{}
		for _, j := range servedJobs(seed, 0) {
			if j < 0 || j >= n {
				t.Fatalf("seed %d: job index %d out of range", seed, j)
			}
			seen[j] = true
		}
		if len(seen) != n {
			t.Errorf("seed %d: round 0 asks for %d of %d specs", seed, len(seen), n)
		}
	}
}

func kernelRefStream(w workload.Workload) []workload.Ref {
	var refs []workload.Ref
	for ph := 0; ph < w.Phases(); ph++ {
		for _, p := range []int{0, w.Procs() - 1} {
			w.Refs(p, ph, func(r workload.Ref) { refs = append(refs, r) })
		}
	}
	return refs
}

func TestKernelsIgnoreSeed(t *testing.T) {
	for _, name := range []string{"fft64", "radix16"} {
		cfg1, w1 := kernelInput(name, 1)
		cfg2, w2 := kernelInput(name, 12345)
		if !reflect.DeepEqual(cfg1, cfg2) {
			t.Errorf("%s: machine depends on the seed", name)
		}
		if !reflect.DeepEqual(kernelRefStream(w1), kernelRefStream(w2)) {
			t.Errorf("%s: references depend on the seed", name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	if n := len(bf.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q not allowed", c)
		}
	}
	if n := len(bf.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q not allowed", p)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", bf.RunSeconds)
	}

	var wls []string
	for _, w := range bf.Workloads {
		checkName("workload", w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", wls, workloadNames)
	}

	var setupBound, maxBound float64
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName("end_to_end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the unit rule", m.Unit)
		}
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, the code reports %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (%v < %v)", setupBound, maxBound)
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName("per_layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the unit rule", m.Unit)
		}
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per_layer[%d] = %s %s %s, the code reports %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	r := newReport("x")
	r.attempted = 3
	for _, d := range endToEnd {
		r.metrics[d.name] = sample{1.5, 3}
	}
	line, err := r.resultLine(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result line keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

// TestIdentityCheck: the traced build of a machine reproduces the
// untraced simulated stats, and the check fires on any difference.
func TestIdentityCheck(t *testing.T) {
	cfg := core.DefaultConfig().WithSwitchDir(sdirEntries)
	run := func(tr *tracer) simResult {
		t.Helper()
		inst, err := buildCore(cfg, workload.NewFFT(1024, cfg.Nodes), false, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tr := newTracer()
	plain, traced := run(nil), run(tr)
	if err := sameStats(plain, traced); err != nil {
		t.Fatalf("traced run differs from the untraced one: %v", err)
	}
	if tr.calls(bSnoop) == 0 || tr.calls(bDeliver) == 0 || tr.calls(bHandle) == 0 || tr.calls(bRefs) == 0 {
		t.Errorf("a wrapped boundary saw no calls: %+v", tr.sortedBounds())
	}
	if plain.stats.(core.Stats).SDirHits == 0 {
		t.Fatal("no switch-directory hits: the traced fabric's stats are not being compared")
	}

	bumped := traced
	s := bumped.stats.(core.Stats)
	s.SDirHits++
	bumped.stats = s
	if err := sameStats(plain, bumped); !errors.Is(err, errStatsDiffer) {
		t.Errorf("one-count difference in sdir hits: got %v, want errStatsDiffer", err)
	}
	a, b := simResult{stats: tracesim.Stats{Refs: 1}}, simResult{stats: tracesim.Stats{Refs: 1, StaleSDir: 1}}
	if err := sameStats(a, b); !errors.Is(err, errStatsDiffer) {
		t.Errorf("tracesim stats difference: got %v, want errStatsDiffer", err)
	}
	if err := sameStats(a, plain); !errors.Is(err, errStatsDiffer) {
		t.Errorf("stats of different simulators: got %v, want errStatsDiffer", err)
	}
}

// spin burns CPU in this package for about d, reading the clock
// rarely so the samples land here rather than in package time.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileSplit(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p := newProfileSplit()
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Skip("no samples collected")
	}
	if p.share("bench")+p.share("runtime")+p.share("other") < 0.99 {
		t.Errorf("samples of a benchmark-only spin landed in program layers: %v", p.layers)
	}
	if p.share("bench") == 0 {
		t.Errorf("no samples attributed to the benchmark's own spin loop: %v", p.layers)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dresar/internal/xbar.(*Network).runArb":  "xbar",
		"dresar/internal/sim.(*Engine).Run.func1": "sim",
		"dresar/internal/tracesim.(*Sim).read":    "tracesim",
		"runtime.duffcopy":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"main.(*tracer).begin":                    "bench",
		"net/http.(*conn).serve":                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if !generatorHelper("dresar/internal/sim.(*Zipf).Draw") || generatorHelper("dresar/internal/sim.(*Engine).Run") {
		t.Error("generatorHelper misclassifies the RNG/Zipf frames")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 of 5 samples = %v, want the largest", got)
	}
	var big []float64
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if got := tail([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("tail of 4 samples = %v, want their median", got)
	}
	if got := tail(big); got != 990 {
		t.Errorf("tail of 1..1000 = %v, want the p99, 990, with ten samples beyond it", got)
	}
	for n, want := range map[int]float64{1000: 99, 5000: 99, 500: 98, 40: 75, 20: 50, 15: 50, 3: 50} {
		if got := tailPct(n); got != want {
			t.Errorf("tailPct(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestServedRound drives one small round through the real server from
// two concurrent clients: one miss and many hits of one spec, every
// payload byte-matched against figures.RunOne, and a wrong reference
// payload caught on every job.
func TestServedRound(t *testing.T) {
	const spec = 5 // tc on the base system: the fastest simulation
	if got := servedSpec(spec); got.Apps[0] != "tc" || got.Sizes[0] != 0 {
		t.Fatalf("spec %d is %v/%v", spec, got.Apps, got.Sizes)
	}
	want := make([]servedRef, len(servedApps)*len(servedSizes))
	ref, err := referenceAnswer(servedSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	want[spec] = ref
	jobs := make([]int, 40)
	for i := range jobs {
		jobs[i] = spec
	}
	tracers := []*tracer{newTracer(), newTracer()}
	rr, err := servedRound(context.Background(), t.TempDir()+"/served", jobs, want, tracers)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, j := range rr.jobs {
		if j.err != nil {
			t.Fatalf("job %d: %v", i, j.err)
		}
		if j.cached {
			hits++
		}
	}
	if hits < len(jobs)-servedClients || hits == len(jobs) {
		t.Errorf("%d of %d jobs hit the cache; want all but the first submissions", hits, len(jobs))
	}
	if rr.simRefs < ref.refs {
		t.Errorf("server simulated %v references, want at least one run's %v", rr.simRefs, ref.refs)
	}
	total := newTracer()
	for _, tr := range tracers {
		total.merge(tr)
	}
	if got := total.calls(bSubmit); got != float64(len(jobs)) {
		t.Errorf("%v submits traced, want %d", got, len(jobs))
	}

	want[spec].payload = append([]byte(nil), ref.payload...)
	want[spec].payload[len(want[spec].payload)-2] ^= 1
	rr, err = servedRound(context.Background(), t.TempDir()+"/served", jobs[:4], want, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range rr.jobs {
		if j.err == nil {
			t.Errorf("job %d: a payload differing from the reference passed", i)
		}
	}
}
