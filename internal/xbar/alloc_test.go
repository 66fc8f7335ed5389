package xbar

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// replySnooper answers every ReadReq at the first non-leaf switch it
// crosses, as a switch-directory hit does: it sinks the request and
// generates the reply inside the switch, from a pooled message and a
// reused Generated slice.
type replySnooper struct {
	pool *mesg.Pool
	gen  [1]*mesg.Message
}

func (s *replySnooper) Snoop(sw topo.SwitchID, m *mesg.Message, now sim.Cycle) Action {
	if m.Kind != mesg.ReadReq || sw.Stage == 0 {
		return Action{}
	}
	r := s.pool.Get()
	*r = mesg.Message{Kind: mesg.ReadReply, Src: m.Dst, Dst: m.Src, Addr: m.Addr, Tx: m.Tx}
	s.pool.Release(m)
	s.gen[0] = r
	return Action{Sink: true, Generated: s.gen[:]}
}

// TestRoundTripZeroAlloc pins the steady-state budget of a full
// request/reply round trip through the 4x4 (16-node, radix-4) fabric:
// with the message pool and the network's tx freelist warm, it must be
// allocation-free, whether the home answers (Send routes both legs) or
// a snooper answers from inside a switch (injectAt routes the reply).
// The per-hop objects this guards: pooled mesg.Message (endpoints),
// recycled tx wrappers and the hop buffers they own, and the injection
// pending queues' shift-down pop.
func TestRoundTripZeroAlloc(t *testing.T) {
	pool := &mesg.Pool{}
	for _, sn := range []Snooper{nil, &replySnooper{pool: pool}} {
		tp := topo.MustNew(16, 4)
		eng := sim.NewEngine()
		net := New(eng, tp, Config{Snoop: sn})
		for i := 0; i < 16; i++ {
			net.AttachProc(i, func(m *mesg.Message) { pool.Release(m) })
		}
		for i := 0; i < 16; i++ {
			i := i
			net.AttachMem(i, func(m *mesg.Message) {
				r := pool.Get()
				*r = mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(i), Dst: mesg.P(m.Src.Node), Addr: m.Addr, Tx: m.Tx}
				pool.Release(m)
				net.Send(r)
			})
		}
		roundTrip := func() {
			m := pool.Get()
			*m = mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(3), Dst: mesg.M(12), Addr: 0x1240}
			net.Send(m)
			eng.Run(0)
		}
		for i := 0; i < 200; i++ {
			roundTrip() // warm pools, queues, and the engine's buckets
		}
		if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
			t.Fatalf("round trip through 4x4 switch (snooper %T) allocates %v per op, want 0", sn, allocs)
		}
		st := net.TotalStats()
		if st.Delivered == 0 || (sn != nil && st.Generated == 0) {
			t.Fatalf("snooper %T: delivered %d, generated %d", sn, st.Delivered, st.Generated)
		}
	}
}
