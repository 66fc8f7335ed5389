package main

import (
	"math/bits"
	"sort"
	"time"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
	"dresar/internal/trace"
	"dresar/internal/workload"
	"dresar/internal/xbar"
)

// spanEvery keeps one span in this many timed crossings of a boundary
// in the span log; counts and histograms cover every timed crossing.
const spanEvery = 4096

// boundary accumulates the crossings of one wrapped public boundary.
type boundary struct {
	Name  string `json:"name"`
	Calls uint64 `json:"calls"`
	// Timed crossings are the ones whose duration was measured: every
	// one when every is 1, else one in every (cheap, very hot calls
	// such as trace.Source.Next would otherwise be dominated by the
	// clock reads).
	Timed uint64 `json:"timed"`
	NS    int64  `json:"timed_ns"`
	// Hist[k] counts timed crossings lasting [2^(k-1), 2^k) ns.
	Hist  [48]uint64 `json:"log2_ns_hist"`
	every uint64
	// durs keeps every timed duration in ms when set, for percentiles.
	durs []float64
	keep bool
}

// span is one sampled boundary crossing. Parent is the crossing that
// was open when this one began (0: none), so nested spans can be
// subtracted to get self time.
type span struct {
	Boundary string `json:"b"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
}

// tracer records the boundary crossings of one goroutine in memory;
// nothing is written until the run ends.
type tracer struct {
	base   time.Time
	bounds map[string]*boundary
	nextID uint64
	stack  []uint64
	spans  []span
	// clockNS is what a timed crossing of an empty call measures: the
	// clock reads themselves. Reported durations are net of it.
	clockNS float64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), bounds: map[string]*boundary{}}
	b := &boundary{every: 1}
	const n = 4096
	for i := 0; i < n; i++ {
		t.end(b, t.begin(b))
	}
	t.clockNS = float64(b.NS) / n
	t.nextID, t.spans = 0, nil
	return t
}

// calls is the number of crossings of the named boundary.
func (t *tracer) calls(name string) float64 {
	if b := t.bounds[name]; b != nil {
		return float64(b.Calls)
	}
	return 0
}

// meanNS is the mean time inside one crossing of the named boundary,
// net of the clock reads.
func (t *tracer) meanNS(name string) float64 {
	b := t.bounds[name]
	if b == nil || b.Timed == 0 {
		return 0
	}
	return max(0, float64(b.NS)/float64(b.Timed)-t.clockNS)
}

// totalNS estimates the time inside all crossings of the named
// boundary from the timed ones.
func (t *tracer) totalNS(name string) float64 { return t.meanNS(name) * t.calls(name) }

// boundary returns the named boundary, timing one call in every.
func (t *tracer) boundary(name string, every uint64) *boundary {
	b := t.bounds[name]
	if b == nil {
		b = &boundary{Name: name, every: every}
		t.bounds[name] = b
	}
	return b
}

// crossing is an open boundary crossing.
type crossing struct {
	id, parent uint64
	start      int64
	timed      bool
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(b *boundary) crossing {
	b.Calls++
	t.nextID++
	c := crossing{id: t.nextID}
	if n := len(t.stack); n > 0 {
		c.parent = t.stack[n-1]
	}
	t.stack = append(t.stack, c.id)
	if b.every <= 1 || b.Calls%b.every == 0 {
		c.timed = true
		c.start = t.now()
	}
	return c
}

func (t *tracer) end(b *boundary, c crossing) {
	t.stack = t.stack[:len(t.stack)-1]
	if !c.timed {
		return
	}
	d := t.now() - c.start
	b.Timed++
	b.NS += d
	b.Hist[min(bits.Len64(uint64(d)), len(b.Hist)-1)]++
	if b.keep {
		b.durs = append(b.durs, float64(d)/1e6)
	}
	if b.Timed%spanEvery == 1 {
		t.spans = append(t.spans, span{Boundary: b.Name, ID: c.id, Parent: c.parent, StartNS: c.start, DurNS: d})
	}
}

// merge folds o's boundaries and spans into t (per-goroutine tracers
// of one run).
func (t *tracer) merge(o *tracer) {
	for name, ob := range o.bounds {
		b := t.boundary(name, ob.every)
		b.Calls += ob.Calls
		b.Timed += ob.Timed
		b.NS += ob.NS
		for k := range b.Hist {
			b.Hist[k] += ob.Hist[k]
		}
		b.durs = append(b.durs, ob.durs...)
	}
	t.spans = append(t.spans, o.spans...)
}

// sortedBounds lists the boundaries by name.
func (t *tracer) sortedBounds() []*boundary {
	out := make([]*boundary, 0, len(t.bounds))
	for _, b := range t.bounds {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Boundary names, shared by the wrappers and the per-layer report.
const (
	bSnoop   = "sdir.Snoop"
	bDeliver = "node.Deliver"
	bHandle  = "dirctl.Handle"
	bRefs    = "workload.Refs"
	bNext    = "trace.Source.Next"
	bJob     = "served.job"
	bSubmit  = "serve.Client.Submit"
	bWait    = "serve.Client.Wait"
	bResult  = "serve.Client.Result"
)

// timedSnooper wraps the switch-directory fabric at the crossbar's
// Snooper interface.
type timedSnooper struct {
	inner xbar.Snooper
	t     *tracer
	b     *boundary
}

func (s *timedSnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) xbar.Action {
	c := s.t.begin(s.b)
	a := s.inner.Snoop(sw, m, now)
	s.t.end(s.b, c)
	return a
}

// handler wraps an endpoint handler (Node.Deliver, Controller.Handle).
func (t *tracer) handler(h xbar.Handler, b *boundary) xbar.Handler {
	return func(m *mesg.Message) {
		c := t.begin(b)
		h(m)
		t.end(b, c)
	}
}

// timedWorkload wraps a kernel's reference generation.
type timedWorkload struct {
	workload.Workload
	t *tracer
	b *boundary
}

func (w *timedWorkload) Refs(p, ph int, emit func(workload.Ref)) {
	c := w.t.begin(w.b)
	w.Workload.Refs(p, ph, emit)
	w.t.end(w.b, c)
}

// timedSource wraps a trace source.
type timedSource struct {
	inner trace.Source
	t     *tracer
	b     *boundary
}

func (s *timedSource) Next() (trace.Rec, bool) {
	c := s.t.begin(s.b)
	r, ok := s.inner.Next()
	s.t.end(s.b, c)
	return r, ok
}
