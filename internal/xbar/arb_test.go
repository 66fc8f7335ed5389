package xbar

import (
	"fmt"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// scanPickOldest is the reference arbiter: a full scan of every input
// queue head, oldest wins, ties to the lowest (port, vc). The indexed
// pickOldest must agree with it whenever both are asked.
func scanPickOldest(sw *swc, out topo.Port) (int, int, bool) {
	bp, bv, found := 0, 0, false
	var bestAge sim.Cycle
	for p := range sw.in {
		for v := 0; v < VCsPerPort; v++ {
			q := &sw.in[p][v]
			if len(q.q) == 0 || q.q[0] == nil {
				continue
			}
			if h := q.q[0]; h.hops[h.hopIdx].Out == out && (!found || h.injected < bestAge) {
				bp, bv, found, bestAge = p, v, true, h.injected
			}
		}
	}
	return bp, bv, found
}

// checkCands compares every switch's candidate sets and wantOut mask
// with a fresh scan of its queue heads, and the indexed arbiter's
// choice with the reference scan for every output.
func checkCands(net *Network) error {
	cand := make([]uint64, 2*net.tp.Radix*net.inWords)
	want := make([]uint64, net.outWords)
	for i := range net.switches {
		sw := &net.switches[i]
		clear(cand)
		clear(want)
		for p := range sw.in {
			for v := 0; v < VCsPerPort; v++ {
				q := &sw.in[p][v]
				if len(q.q) == 0 || q.q[0] == nil {
					continue
				}
				h := q.q[0]
				out, qi := int(h.hops[h.hopIdx].Out), qIndex(p, v)
				cand[out*net.inWords+qi/64] |= 1 << uint(qi%64)
				want[out/64] |= 1 << uint(out%64)
			}
		}
		for w := range cand {
			if cand[w] != sw.cand[w] {
				return fmt.Errorf("switch %v: cand word %d (output %d) = %#x, scan says %#x",
					sw.id, w, w/net.inWords, sw.cand[w], cand[w])
			}
		}
		for w := range want {
			if want[w] != sw.wantOut[w] {
				return fmt.Errorf("switch %v: wantOut word %d = %#x, scan says %#x", sw.id, w, sw.wantOut[w], want[w])
			}
		}
		for out := range sw.out {
			p, v, ok := net.pickOldest(sw, topo.Port(out))
			rp, rv, rok := scanPickOldest(sw, topo.Port(out))
			if p != rp || v != rv || ok != rok {
				return fmt.Errorf("switch %v output %d: pickOldest = (%d,%d,%v), scan = (%d,%d,%v)",
					sw.id, out, p, v, ok, rp, rv, rok)
			}
		}
	}
	return nil
}

// TestArbCandidatesMatchScan drives random traffic through networks
// whose candidate sets span one word (16/4, 64/8) and two (256/16: 66
// input queues), with snooper sinks and generated messages (the
// injection block), tiny buffers, a mid-run dead link, a dead switch
// and a dead endpoint link (rerouting, refloodRoutes, and in-flight
// arrivals dropped by dropUnroutable). After every event every
// switch's incremental masks must equal a fresh scan of its heads.
func TestArbCandidatesMatchScan(t *testing.T) {
	for _, c := range []struct{ nodes, radix, msgs int }{{16, 4, 1500}, {64, 8, 1500}, {256, 16, 800}} {
		t.Run(fmt.Sprintf("%d/%d", c.nodes, c.radix), func(t *testing.T) {
			tp := topo.MustNew(c.nodes, c.radix)
			eng := sim.NewEngine()
			net := New(eng, tp, Config{Snoop: &chaosSnooper{rng: sim.NewRNG(11), tp: tp}, VCQueueMsgs: 1})
			net.Fail = func(error) {}
			for i := 0; i < tp.Nodes; i++ {
				net.AttachProc(i, func(*mesg.Message) {})
				net.AttachMem(i, func(*mesg.Message) {})
			}
			rng := sim.NewRNG(5)
			const span = 4000
			for i := 0; i < c.msgs; i++ {
				src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
				if i%8 == 0 {
					dst = 0 // keep traffic bound for P0 in flight when it is partitioned
				}
				var m *mesg.Message
				switch rng.Intn(3) {
				case 0:
					m = &mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(src), Dst: mesg.M(dst)}
				case 1:
					m = &mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(src), Dst: mesg.P(dst), Data: 1}
				default:
					m = &mesg.Message{Kind: mesg.CtoCReply, Src: mesg.P(src), Dst: mesg.P(dst)}
				}
				m.Addr = uint64(rng.Intn(1<<16)) * 32
				eng.At(sim.Cycle(rng.Intn(span)), func() { net.Send(m) })
			}
			links := tp.InterSwitchLinks()
			eng.At(span/4, func() { l := links[len(links)/3]; net.DownLink(l.Sw, l.Out) })
			eng.At(span/2, func() { net.DownSwitch(tp.Leaves + 1) })
			eng.At(3*span/4, func() { net.DownLink(0, 0) }) // partitions P0
			events := 0
			for eng.Step() {
				events++
				if err := checkCands(net); err != nil {
					t.Fatalf("after event %d (cycle %d): %v", events, eng.Now(), err)
				}
			}
			st := net.TotalStats()
			if !net.Quiesced() {
				t.Fatal("network not quiesced")
			}
			if st.Reroutes == 0 || st.Unroutable == 0 {
				t.Fatalf("faults did not bite (reroutes=%d unroutable=%d)", st.Reroutes, st.Unroutable)
			}
			if st.Sent+st.Generated != st.Delivered+st.Sunk+st.Unroutable {
				t.Fatalf("conservation violated: %+v", st)
			}
		})
	}
}

// TestWideRadixDelivers is the regression for switches with more than
// 64 outputs: arbitration once tracked wanted outputs in a single
// 64-bit word, so at radix 64 (128 outputs) outputs 64 and up were
// never arbitrated and the fabric wedged with every message queued.
func TestWideRadixDelivers(t *testing.T) {
	tp := topo.MustNew(128, 64)
	eng := sim.NewEngine()
	net := New(eng, tp, Config{})
	delivered := 0
	for i := 0; i < tp.Nodes; i++ {
		net.AttachProc(i, func(*mesg.Message) { delivered++ })
		net.AttachMem(i, func(*mesg.Message) { delivered++ })
	}
	rng := sim.NewRNG(99)
	const sent = 2000
	for i := 0; i < sent; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		m := &mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(src), Dst: mesg.M(dst)}
		if i%2 == 1 {
			m = &mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(src), Dst: mesg.P(dst), Data: 1}
		}
		m.Addr = uint64(rng.Intn(1<<20)) * 32
		eng.At(sim.Cycle(rng.Intn(5000)), func() { net.Send(m) })
	}
	eng.Run(0)
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
	if !net.Quiesced() {
		t.Fatal("network not quiesced")
	}
}

// BenchmarkArbHotSwitch times one arbitration pass of a congested
// radix-8 switch: a middle-rank switch of the 512-node, 3-stage fabric
// (so every output feeds another switch) with every input queue
// holding a landed head, heads spread over all 16 outputs, every link
// free and every downstream credit exhausted. Each pass therefore
// picks the oldest candidate of every output and grants nothing, so
// no state needs restoring between iterations.
func BenchmarkArbHotSwitch(b *testing.B) {
	tp := topo.MustNew(512, 8)
	net := New(sim.NewEngine(), tp, Config{})
	sw := &net.switches[tp.Leaves]
	for o := range sw.out {
		sw.out[o].credit = [VCsPerPort]int{}
	}
	rng := sim.NewRNG(5)
	for p := range sw.in {
		for v := 0; v < VCsPerPort; v++ {
			for k := 0; k < DefaultVCQueueMsgs; k++ {
				out := topo.Port((qIndex(p, v) + k) % len(sw.out))
				sw.in[p][v].push(&tx{
					m:        &mesg.Message{Kind: mesg.ReadReq, Dst: mesg.M(v)},
					hops:     []topo.Hop{{Sw: sw.id, In: topo.Port(p), Out: out}},
					injected: sim.Cycle(rng.Intn(1000)),
				})
				sw.queued++
			}
		}
	}
	net.resyncCands(sw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.runArb(sw)
	}
}
