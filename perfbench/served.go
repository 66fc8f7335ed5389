package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dresar/internal/figures"
	"dresar/internal/serve"
	"dresar/internal/sim"
	"dresar/internal/workload"
)

// The served job mix: one-cell sweeps over the paper's scientific
// kernels and directory sizes, drawn Zipf-skewed so most jobs hit the
// server's cache and a few run real simulations. The popularity order
// is fixed (kernel-major, as listed); only the draws depend on the seed,
// so every seed asks for nearly the same mix.
var (
	servedApps  = []string{"fft", "tc", "sor", "fwa", "gauss"}
	servedSizes = []int{0, 256, 512, 1024, 2048}
)

const (
	servedZipf    = 1.0
	servedClients = 2
	// servedRoundJobs is the length of one round's job list: enough
	// that the p99 has ten samples beyond it.
	servedRoundJobs = 1000
	servedPoll      = 5 * time.Millisecond
)

// servedSpec is the i-th spec in popularity order.
func servedSpec(i int) serve.JobSpec {
	return serve.JobSpec{Scale: "small",
		Apps:  []string{servedApps[i/len(servedSizes)]},
		Sizes: []int{servedSizes[i%len(servedSizes)]}}
}

// servedJobs draws round's job list for a seed: indices into the
// popularity order.
func servedJobs(seed uint64, round int) []int {
	n := len(servedApps) * len(servedSizes)
	z := sim.NewZipf(sim.NewRNG(seed).Split(uint64(round)), n, servedZipf)
	jobs := make([]int, servedRoundJobs)
	for i := range jobs {
		jobs[i] = z.Draw()
	}
	return jobs
}

// servedRef is a spec's reference answer, from figures.RunOne.
type servedRef struct {
	// payload is the result document the server must return: its
	// canonical form (version, canonical spec without wall-clock
	// knobs, one row per cell).
	payload []byte
	// refs counts the references the simulation executes.
	refs            float64
	cycles, readLat float64
}

func referenceAnswer(spec serve.JobSpec) (servedRef, error) {
	app, size := spec.Apps[0], spec.Sizes[0]
	r, err := figures.RunOne(app, figures.ScaleSmall, size)
	if err != nil {
		return servedRef{}, err
	}
	type row struct {
		App    string         `json:"app"`
		Size   int            `json:"size"`
		Result figures.Result `json:"result"`
	}
	payload, err := json.Marshal(struct {
		V    int           `json:"v"`
		Spec serve.JobSpec `json:"spec"`
		Rows []row         `json:"rows"`
	}{V: 1, Spec: spec, Rows: []row{{App: app, Size: size, Result: r}}})
	if err != nil {
		return servedRef{}, err
	}
	w, err := figures.ScientificWorkload(app, figures.ScaleSmall)
	if err != nil {
		return servedRef{}, err
	}
	var refs float64
	for ph := 0; ph < w.Phases(); ph++ {
		for p := 0; p < w.Procs(); p++ {
			w.Refs(p, ph, func(workload.Ref) { refs++ })
		}
	}
	return servedRef{payload: payload, refs: refs, cycles: float64(r.ExecCycles), readLat: r.AvgReadLat}, nil
}

// referenceAnswers computes every spec's reference answer, on at most
// servedClients goroutines.
func referenceAnswers() ([]servedRef, error) {
	n := len(servedApps) * len(servedSizes)
	out := make([]servedRef, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i], errs[i] = referenceAnswer(servedSpec(i))
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// servedServer is an in-process dresar-served: the job server with a
// fresh cache and journal, behind its HTTP handler on loopback.
type servedServer struct {
	dir   string
	srv   *serve.Server
	hs    *http.Server
	done  chan error
	base  string
	setup time.Duration
}

// startServed starts a server rooted at dir, timing the start: opening
// the cache and journal, binding the listener, serving.
func startServed(dir string) (*servedServer, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := serve.NewServer(serve.Config{Workers: servedClients,
		CacheDir: filepath.Join(dir, "cache"), JournalDir: filepath.Join(dir, "journal")})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	s := &servedServer{dir: dir, srv: srv, hs: serve.NewHTTPServer(srv.Handler(), serve.HTTPTimeouts{}),
		done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.setup = time.Since(t0)
	return s, nil
}

// stop shuts the server down, waits for it, and deletes its state.
func (s *servedServer) stop(ctx context.Context) error {
	err := errors.Join(s.srv.Shutdown(ctx), s.hs.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// jobOutcome is one served job as its client saw it.
type jobOutcome struct {
	ms     float64
	cached bool
	err    error
}

// roundResult is one round against a fresh server.
type roundResult struct {
	setup  time.Duration
	loop   time.Duration // the clients' closed loop, first submit to last result
	jobs   []jobOutcome
	stats  serve.Stats
	heapMB float64
	// simRefs counts the references the server simulated: those of
	// the jobs that missed its cache.
	simRefs float64
}

// servedRound starts a server with a fresh cache and journal under
// dir, runs the round's job list through servedClients closed-loop
// clients, and shuts everything down. tracers, when non-nil, hold one
// tracer per client.
func servedRound(ctx context.Context, dir string, jobs []int, want []servedRef, tracers []*tracer) (rr roundResult, err error) {
	s, err := startServed(dir)
	if err != nil {
		return rr, err
	}
	defer func() { err = errors.Join(err, s.stop(ctx)) }()
	rr.setup = s.setup

	outcomes := make([]jobOutcome, len(jobs))
	clients := make([]*serve.Client, servedClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		clients[c] = &serve.Client{Base: s.base, HTTP: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}}
		cl := clients[c]
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				outcomes[i] = runJob(ctx, cl, servedSpec(jobs[i]), want[jobs[i]].payload, tr)
			}
		}()
	}
	wg.Wait()
	rr.loop = time.Since(start)
	rr.jobs = outcomes
	for i, o := range outcomes {
		if o.err == nil && !o.cached {
			rr.simRefs += want[jobs[i]].refs
		}
	}
	rr.stats, err = clients[0].Stats(ctx)
	rr.heapMB = liveHeapMB(s)
	for _, cl := range clients {
		cl.HTTP.CloseIdleConnections()
	}
	return rr, err
}

// runJob submits one job and fetches its result, timing submit to
// result; a wrong payload is an error.
func runJob(ctx context.Context, cl *serve.Client, spec serve.JobSpec, want []byte, tr *tracer) jobOutcome {
	call := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		b := tr.boundary(name, 1)
		b.keep = true
		c := tr.begin(b)
		err := f()
		tr.end(b, c)
		return err
	}
	start := time.Now()
	var out jobOutcome
	out.err = call(bJob, func() error {
		var st serve.JobStatus
		err := call(bSubmit, func() (err error) { st, err = cl.Submit(ctx, spec); return err })
		if err != nil {
			return err
		}
		if !st.State.Terminal() {
			err = call(bWait, func() (err error) { st, err = cl.Wait(ctx, st.ID, servedPoll); return err })
			if err != nil {
				return err
			}
		}
		out.cached = st.Cached
		var got []byte
		err = call(bResult, func() (err error) { got, err = cl.Result(ctx, st.ID); return err })
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("job %s %v/%v: result differs from figures.RunOne", st.ID, spec.Apps, spec.Sizes)
		}
		return nil
	})
	out.ms = float64(time.Since(start)) / 1e6
	return out
}
