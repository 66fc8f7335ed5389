package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the
// repository root lists the same names and units (the self-tests
// assert it) and adds the regression bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the simulator or the server sees. Every
// workload reports every one. A "job" is one unit of work a user asks
// for: one simulation run on fft64, radix16 and tpcc-trace, one HTTP
// job from submit to result on served. Percentiles use the nearest
// rank; job_p99_ms follows tailPct, and the printed table gives the
// percentile used and the sample count beside each value.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"refs_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"sim_cycles", "cycles", "lower"},
	{"read_lat_cycles", "cycles", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer is the traced run's layer split, named <layer>.<metric>.
// Layers a workload bypasses report 0. Simulated counters (msgs,
// hits, cycles...) are counted only where the benchmark builds the
// simulator; the served workload's simulations run inside the server,
// so there only the profile shares and the serve metrics are non-zero.
var perLayer = []metricDef{
	{"bench.trace_overhead", "ratio", "lower"},
	{"xbar.self_share", "fraction", "lower"},
	{"xbar.msgs", "count", "lower"},
	{"xbar.flit_hops", "count", "lower"},
	{"xbar.queue_wait_cycles", "cycles", "lower"},
	{"sim.self_share", "fraction", "lower"},
	{"runtime.self_share", "fraction", "lower"},
	{"runtime.copy_share", "fraction", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"topo.self_share", "fraction", "lower"},
	{"sdir.self_share", "fraction", "lower"},
	{"sdir.snoops", "count", "lower"},
	{"sdir.snoop_ns", "ns", "lower"},
	{"sdir.hits", "count", "higher"},
	{"sdir.inserts", "count", "lower"},
	{"sdir.invalidates", "count", "lower"},
	{"sdir.evictions", "count", "lower"},
	{"sdir.transient_hits", "count", "lower"},
	{"sdir.port_delay_cycles", "cycles", "lower"},
	{"sdir.hit_rate", "fraction", "higher"},
	{"dirctl.self_share", "fraction", "lower"},
	{"dirctl.intakes", "count", "lower"},
	{"dirctl.reads", "count", "lower"},
	{"dirctl.ctoc_forwards", "count", "lower"},
	{"dirctl.busy_cycles", "cycles", "lower"},
	{"dirctl.retries", "count", "lower"},
	{"dirctl.pending_peak", "count", "lower"},
	{"node.self_share", "fraction", "lower"},
	{"node.deliveries", "count", "lower"},
	{"node.deliver_ns", "ns", "lower"},
	{"node.read_misses", "count", "lower"},
	{"node.hit_rate", "fraction", "higher"},
	{"node.read_stall_cycles", "cycles", "lower"},
	{"node.write_stall_cycles", "cycles", "lower"},
	{"core.self_share", "fraction", "lower"},
	{"cache.self_share", "fraction", "lower"},
	{"workload.self_share", "fraction", "lower"},
	{"workload.gen_ms", "ms", "lower"},
	{"trace.self_share", "fraction", "lower"},
	{"trace.records", "count", "lower"},
	{"trace.gen_ms", "ms", "lower"},
	{"tracesim.self_share", "fraction", "lower"},
	{"tracesim.ctoc_home", "count", "lower"},
	{"tracesim.ctoc_switch", "count", "higher"},
	{"tracesim.stale_sdir", "count", "lower"},
	{"serve.self_share", "fraction", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.result_ms", "ms", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.cache_hit_rate", "fraction", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.journal_appends", "count", "lower"},
}

// sample is one measured value with the number of observations behind
// it (runs, jobs or calls).
type sample struct {
	value float64
	n     int
}

// report is one invocation's outcome.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]sample
	// extra holds figures printed in the table but not in the JSON
	// line: fail_frac (the JSON carries attempted and failed) and the
	// served cache-hit latency.
	extra map[string]sample
}

func newReport(workload string) *report {
	return &report{workload: workload, correct: true,
		metrics: map[string]sample{}, extra: map[string]sample{}}
}

// maxProblems bounds the failures a report lists; it still counts all.
const maxProblems = 10

// fail records an output-check failure: the run is not correct.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	switch n := len(r.problems); {
	case n < maxProblems:
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	case n == maxProblems:
		r.problems = append(r.problems, "further failures not listed")
	}
}

// printTable writes the human-readable metric lines for defs.
func (r *report) printTable(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", r.workload, r.correct, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAIL %s\n", p)
	}
	for _, d := range defs {
		s := r.metrics[d.name]
		fmt.Fprintf(w, "%-26s %16.6g %-8s n=%d\n", d.name, s.value, d.unit, s.n)
	}
	names := make([]string, 0, len(r.extra))
	for k := range r.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := r.extra[k]
		fmt.Fprintf(w, "%-26s %16.6g %-8s n=%d\n", k, s.value, "", s.n)
	}
}

// resultLine renders the final JSON object: exactly correct,
// attempted, failed and metrics, with every metric of defs.
func (r *report) resultLine(defs []metricDef) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		m[d.name] = val{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
}

// median returns the middle of xs (mean of the two middles for even
// counts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// tailPct is the percentile job_p99_ms reports for n jobs: the p99 when
// at least ten jobs lie beyond it (n >= 1000), else the highest
// percentile that still has ten beyond it, but never below the median.
// A simulator workload completes a few dozen runs at most, so its tail
// is not resolvable and the figure is its median.
func tailPct(n int) float64 {
	p := 99.0
	if n < 1000 {
		p = math.Floor(100 * float64(n-10) / float64(n))
	}
	return max(p, 50)
}

// tail is job_p99_ms for xs: the tailPct percentile, and at least the
// median.
func tail(xs []float64) float64 {
	return max(percentile(xs, tailPct(len(xs))), median(xs))
}
