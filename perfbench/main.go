// Command perfbench is the repository's benchmark. One invocation
// runs one named workload in one process against the public APIs of
// internal/core, internal/workload, internal/tracesim, internal/trace
// and internal/serve, checks the outputs, prints a metric table, and
// ends with one JSON line:
//
//	bash perfbench/run.sh --workload fft64 --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen and which
// layers it exercises and bypasses):
//
//	fft64       FFT, 16K points, 64 nodes (radix 8, 2 stages), 1K-entry switch directories
//	radix16     radix permutation, 64K keys, 4 passes, 16 nodes, 1K-entry switch directories
//	tpcc-trace  4M-record synthetic TPC-C trace (seeded) through tracesim with switch directories
//	served      2 closed-loop HTTP clients against an in-process dresar-served handler
//	all         every workload in turn
//
// With --trace 0 the run is timed with no instrumentation and reports
// the end-to-end metrics; with --trace 1 it alternates untraced and
// traced runs, reports the per-layer split (metrics.go), the tracing
// overhead, and writes the span log, boundary histograms and CPU
// profiles under --out. The simulated metrics (cycles, latencies,
// counters) are outputs of a model that is unvalidated against
// hardware for these workloads; no error figure is claimed.
//
// The engine stays serial and the inputs at the sizes above: the
// command refuses to run when DRESAR_ENGINE or DRESAR_SCALE is set.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// minSetups is the fewest set-ups a run times, so setup_s is a median
// even when only one or two simulations fit in the window.
const minSetups = 15

// opts are one invocation's settings.
type opts struct {
	seed  uint64
	dur   time.Duration
	trace bool
	out   string
	host  hostInfo
}

var workloadNames = []string{"fft64", "radix16", "tpcc-trace", "served"}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "input seed (tpcc-trace and served; the kernels have no random input)")
	seconds := flag.Float64("seconds", 10, "measurement window per workload, seconds")
	traceMode := flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for served state, spans and profiles")
	commit := flag.String("commit", "none", "commit of the sources, recorded with the result")
	flag.Parse()

	for _, v := range []string{"DRESAR_ENGINE", "DRESAR_SCALE"} {
		if os.Getenv(v) != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s is set; it swaps the engine or the inputs, so the run would not measure the benchmark\n", v)
			return 2
		}
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", n, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o := opts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *traceMode == 1, out: *out, host: newHostInfo(*commit)}
	hj, _ := json.Marshal(o.host)
	fmt.Printf("# host %s\n", hj)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	all := newReport("all")
	var last []byte
	for _, n := range names {
		r := runWorkload(n, o)
		r.printTable(os.Stdout, defs)
		line, err := r.resultLine(defs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		last = line
		all.correct = all.correct && r.correct
		all.attempted += r.attempted
		all.failed += r.failed
		for _, d := range defs {
			all.metrics[n+"."+d.name] = r.metrics[d.name]
		}
	}
	if len(names) > 1 {
		var allDefs []metricDef
		for _, n := range names {
			for _, d := range defs {
				allDefs = append(allDefs, metricDef{n + "." + d.name, d.unit, d.better})
			}
		}
		line, err := all.resultLine(allDefs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		last = line
	}
	fmt.Println(string(last))
	if !all.correct {
		return 1
	}
	return 0
}

func runWorkload(name string, o opts) *report {
	if name == "served" {
		if o.trace {
			return traceServed(o)
		}
		return measureServed(o)
	}
	for _, c := range simCases {
		if c.name == name {
			if o.trace {
				return traceSim(c, o)
			}
			return measureSim(c, o)
		}
	}
	panic("perfbench: no workload " + name)
}

// hostInfo is recorded with every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	// Source is a digest of the simulator's sources (go.mod and
	// internal/), which identifies the code when the checkout carries
	// no git metadata.
	Source string `json:"source_sha256"`
}

func newHostInfo(commit string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit,
		Source:     sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every file under internal/, by path
// and content, in path order; "unknown" when they cannot be read.
func sourceDigest() string {
	var paths []string
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceFile is the traced run's record, written when the run ends.
type traceFile struct {
	Host       hostInfo           `json:"host"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Runs       int                `json:"traced_runs"`
	Boundaries []*boundary        `json:"boundaries"`
	Shares     map[string]float64 `json:"self_shares"`
	Spans      []span             `json:"spans"`
}

// writeTrace writes the span log, boundary counts and histograms, and
// the profile split of a traced run under o.out.
func writeTrace(o opts, name string, runs int, tr *tracer, split *profileSplit) error {
	shares := map[string]float64{}
	for l := range split.layers {
		shares[l] = split.share(l)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(traceFile{Host: o.host, Workload: name, Seed: o.seed, Runs: runs,
		Boundaries: tr.sortedBounds(), Shares: shares, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed)), buf.Bytes(), 0o644)
}

// writeProfile keeps one traced run's CPU profile under o.out.
func writeProfile(o opts, name string, run int, gz []byte) error {
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d-run%d.pprof", name, o.seed, run)), gz, 0o644)
}
