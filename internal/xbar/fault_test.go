package xbar

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

// Topology cheat sheet for the 16/4 rig (bundle factor 1):
// ordinals 0-3 are leaves S0.x, 4-7 are tops S1.x. Leaf up-link to top
// t is out port 4+t; top down-link to leaf l is out port l. P0->M15
// runs leaf0:out7 -> top3:out7.

func TestDownLinkTakesDetour(t *testing.T) {
	r := newRig(t, Config{})
	// Kill leaf 0's only up-link to top 3. With bundle=1 the alternate
	// path is a 4-hop detour: leaf0 -> top' -> leaf' -> top3 -> M15.
	r.net.DownLink(0, 7)
	r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15)})
	r.eng.Run(0)
	if len(r.got) != 1 || r.got[0].end != mesg.M(15) {
		t.Fatalf("deliveries: %+v", r.got)
	}
	// 1-flit message: injection 4, then four switch hops of core+ser =
	// 8 each (vs two hops = 20 cycles on the clean path).
	if want := sim.Cycle(4 + 4*8); r.got[0].at != want {
		t.Fatalf("detour latency = %d, want %d", r.got[0].at, want)
	}
	if r.net.TotalStats().Reroutes != 1 || r.net.TotalStats().Unroutable != 0 {
		t.Fatalf("stats: %+v", r.net.TotalStats())
	}
}

func TestDownLinkPrefersBundleLane(t *testing.T) {
	// With a bundle factor above 1 (16 nodes, radix 8: 4 lanes) a leaf
	// has sibling lanes to each top: losing one lane must fall back to
	// another, keeping the 2-hop path.
	tp := topo.MustNew(16, 8)
	if tp.Bundle < 2 {
		t.Fatalf("bundle = %d, want > 1", tp.Bundle)
	}
	eng := sim.NewEngine()
	net := New(eng, tp, Config{})
	var got []delivery
	for i := 0; i < 16; i++ {
		i := i
		net.AttachProc(i, func(m *mesg.Message) { got = append(got, delivery{eng.Now(), mesg.P(i), m}) })
		net.AttachMem(i, func(m *mesg.Message) { got = append(got, delivery{eng.Now(), mesg.M(i), m}) })
	}
	// Kill the exact lane P0 -> M15 canonically uses.
	hops := tp.Forward(0, 15)
	net.DownLink(tp.SwitchOrdinal(hops[0].Sw), hops[0].Out)
	net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15)})
	eng.Run(0)
	if len(got) != 1 || got[0].end != mesg.M(15) {
		t.Fatalf("deliveries: %+v", got)
	}
	// Same hop count as the clean route: the sibling lane absorbs it.
	if want := sim.Cycle(4 + 2*8); got[0].at != want {
		t.Fatalf("lane-failover latency = %d, want %d", got[0].at, want)
	}
	if net.TotalStats().Reroutes != 1 {
		t.Fatalf("stats: %+v", net.TotalStats())
	}
}

func TestDownSwitchAvoidedWhenAlternativeExists(t *testing.T) {
	r := newRig(t, Config{})
	// Addr 0 selects top 0 for the turnaround; with top 0 dead the
	// reply must turn at a live top instead — same hop count, no
	// degraded traversal.
	r.net.DownSwitch(4)
	r.net.Send(&mesg.Message{Kind: mesg.CtoCReply, Addr: 0, Src: mesg.P(0), Dst: mesg.P(15)})
	r.eng.Run(0)
	if len(r.got) != 1 || r.got[0].end != mesg.P(15) {
		t.Fatalf("deliveries: %+v", r.got)
	}
	if r.net.TotalStats().Reroutes != 1 || r.net.TotalStats().DegradedHops != 0 {
		t.Fatalf("stats: %+v", r.net.TotalStats())
	}
}

func TestDownSwitchDegradedTraversalWhenUnavoidable(t *testing.T) {
	r := newRig(t, Config{})
	// M15 hangs off top 3 and nowhere else: with top 3 dead the message
	// must still get through on the maintenance bypass, paying the
	// degraded penalty and skipping the (dead) snoop stage.
	s := &sinkSnooper{}
	r.net.cfg.Snoop = s
	r.net.DownSwitch(7)
	r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15)})
	r.eng.Run(0)
	if len(r.got) != 1 || r.got[0].end != mesg.M(15) {
		t.Fatalf("deliveries: %+v", r.got)
	}
	if r.net.TotalStats().DegradedHops != 1 {
		t.Fatalf("degraded hops = %d, want 1", r.net.TotalStats().DegradedHops)
	}
	// Clean 2-hop latency plus one DegradedPenalty at the dead top.
	if want := sim.Cycle(4 + 2*8 + DegradedPenalty); r.got[0].at != want {
		t.Fatalf("degraded latency = %d, want %d", r.got[0].at, want)
	}
	if s.snooped != 1 { // leaf only; the dead top must not snoop
		t.Fatalf("snooped = %d, want 1 (dead switch must not snoop)", s.snooped)
	}
}

func TestEndpointLinkDownIsUnroutable(t *testing.T) {
	r := newRig(t, Config{})
	var failures []error
	r.net.Fail = func(err error) { failures = append(failures, err) }
	// P0's delivery link is leaf0:out0 — its death partitions P0.
	r.net.DownLink(0, 0)
	r.net.Send(&mesg.Message{Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(15), Dst: mesg.P(0)})
	r.eng.Run(0)
	if len(r.got) != 0 {
		t.Fatalf("partitioned endpoint still got %+v", r.got)
	}
	if len(failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(failures))
	}
	var ue *UnroutableError
	if !errors.As(failures[0], &ue) {
		t.Fatalf("failure %v is not *UnroutableError", failures[0])
	}
	if ue.Dst != mesg.P(0) || ue.Kind != mesg.ReadReply || !strings.Contains(ue.Down, "S0.0:out0") {
		t.Fatalf("error fields: %+v", ue)
	}
	if r.net.TotalStats().Unroutable != 1 {
		t.Fatalf("stats: %+v", r.net.TotalStats())
	}
	if !r.net.Quiesced() {
		t.Fatal("network wedged instead of dropping the unroutable message")
	}
}

func TestMidFlightLinkDownReroutes(t *testing.T) {
	r := newRig(t, Config{})
	r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15)})
	// At cycle 2 the message is still serializing on the injection
	// link; its up-link (leaf0:out7) dies under it.
	r.eng.At(2, func() { r.net.DownLink(0, 7) })
	r.eng.Run(0)
	if len(r.got) != 1 || r.got[0].end != mesg.M(15) {
		t.Fatalf("deliveries: %+v", r.got)
	}
	if r.net.TotalStats().Reroutes == 0 {
		t.Fatalf("mid-flight fault produced no reroute: %+v", r.net.TotalStats())
	}
}

func TestCorruptionExtendsLinkOccupancy(t *testing.T) {
	r := newRig(t, Config{})
	fired := false
	r.net.SetLinkCorrupter(0, 7, func() bool {
		if fired {
			return false
		}
		fired = true
		return true
	})
	r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15)})
	r.eng.Run(0)
	if len(r.got) != 1 {
		t.Fatalf("deliveries: %+v", r.got)
	}
	// One corrupted transmission re-serializes the 1-flit message and
	// pays the nack round trip: clean 20 + (4 + RetxRoundTrip).
	if want := sim.Cycle(20 + 4 + RetxRoundTrip); r.got[0].at != want {
		t.Fatalf("retransmit latency = %d, want %d", r.got[0].at, want)
	}
	if r.net.TotalStats().Retransmits != 1 {
		t.Fatalf("stats: %+v", r.net.TotalStats())
	}
}

func TestLinkRetriesBounded(t *testing.T) {
	r := newRig(t, Config{})
	draws := 0
	r.net.SetLinkCorrupter(0, 7, func() bool { draws++; return true }) // never heals
	r.net.Send(&mesg.Message{Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(15)})
	r.eng.Run(0)
	if len(r.got) != 1 {
		t.Fatalf("message lost to a pathological corrupter: %+v", r.got)
	}
	if r.net.TotalStats().Retransmits != MaxLinkRetries {
		t.Fatalf("retransmits = %d, want cap %d", r.net.TotalStats().Retransmits, MaxLinkRetries)
	}
}

func TestDownIsIdempotent(t *testing.T) {
	r := newRig(t, Config{})
	r.net.DownLink(0, 7)
	r.net.DownLink(0, 7)
	r.net.DownSwitch(5)
	r.net.DownSwitch(5)
	rep := r.net.DownReport()
	if strings.Count(rep, "switch ") != 1 || strings.Count(rep, "link ") != 1 {
		t.Fatalf("duplicate down entries in report: %s", rep)
	}
}

// FuzzRoute throws random (endpoint pair, kind, fault set) combinations
// at the fabric: whatever the fault state, each message must either be
// delivered exactly once or be reported unroutable exactly once —
// never lost, duplicated, panicked, or wedged. A second message, the
// first one's reverse, follows once the first is delivered or dropped:
// it reuses the first one's recycled tx, so a hop buffer left dirty by
// a detour or a drop would misroute it.
func FuzzRoute(f *testing.F) {
	f.Add(uint8(0), uint8(15), uint8(0), uint32(0x40), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(12), uint8(1), uint32(0x1000), uint8(7), uint8(1))
	f.Add(uint8(15), uint8(0), uint8(2), uint32(0), uint8(31), uint8(2))
	f.Add(uint8(5), uint8(5), uint8(2), uint32(0xfff), uint8(16), uint8(3))
	f.Add(uint8(9), uint8(2), uint8(0), uint32(1<<20), uint8(40), uint8(7))
	// The first message detours around a dead switch; its reverse
	// routes canonically on the recycled tx.
	f.Add(uint8(15), uint8(0), uint8(2), uint32(0), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, srcB, dstB, kindB uint8, addr uint32, faultB, modeB uint8) {
		tp := topo.MustNew(16, 4)
		eng := sim.NewEngine()
		net := New(eng, tp, Config{VCQueueMsgs: 1})
		delivered := 0
		for i := 0; i < 16; i++ {
			net.AttachProc(i, func(m *mesg.Message) { delivered++ })
			net.AttachMem(i, func(m *mesg.Message) { delivered++ })
		}
		unroutable := 0
		net.Fail = func(err error) {
			var ue *UnroutableError
			if !errors.As(err, &ue) {
				t.Fatalf("Fail got %v, want *UnroutableError", err)
			}
			unroutable++
		}
		src, dst := int(srcB%16), int(dstB%16)
		var m *mesg.Message
		switch kindB % 3 {
		case 0:
			m = &mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(src), Dst: mesg.M(dst)}
		case 1:
			m = &mesg.Message{Kind: mesg.ReadReply, Src: mesg.M(src), Dst: mesg.P(dst)}
		default:
			m = &mesg.Message{Kind: mesg.CtoCReply, Src: mesg.P(src), Dst: mesg.P(dst)}
		}
		m.Addr = uint64(addr)
		// modeB picks the fault class; faultB picks the victim. Endpoint
		// delivery links are included on purpose: those are the
		// partition cases.
		links := tp.InterSwitchLinks()
		switch modeB % 4 {
		case 1:
			l := links[int(faultB)%len(links)]
			net.DownLink(l.Sw, l.Out)
		case 2:
			net.DownSwitch(int(faultB) % tp.NumSwitches())
		case 3:
			// Endpoint delivery link: leaf out[0..r) or top out[r..2r).
			sw := int(faultB) % tp.NumSwitches()
			out := topo.Port(int(faultB>>3) % tp.Radix)
			if sw >= tp.Leaves {
				out += topo.Port(tp.Radix)
			}
			net.DownLink(sw, out)
		}
		net.Send(m)
		// A second fault while the message is in flight.
		if modeB%4 != 0 {
			l := links[int(faultB>>2)%len(links)]
			eng.At(3, func() { net.DownLink(l.Sw, l.Out) })
		}
		eng.Run(0)
		check := func(sent int) {
			t.Helper()
			if delivered+unroutable != sent {
				t.Fatalf("delivered=%d unroutable=%d, want %d outcomes", delivered, unroutable, sent)
			}
			if !net.Quiesced() {
				t.Fatal("network not quiesced")
			}
			st := net.TotalStats()
			if st.Sent != uint64(sent) || st.Delivered+st.Unroutable != uint64(sent) {
				t.Fatalf("stats outcome for %d sends: %+v", sent, st)
			}
		}
		check(1)

		// Delivery and drops both recycle the tx; the second message
		// must get it back with a clean hop buffer.
		if len(net.txFree) == 0 {
			t.Fatal("first message's tx was not recycled")
		}
		reused := net.txFree[len(net.txFree)-1]
		m2 := &mesg.Message{Kind: m.Kind, Src: m.Dst, Dst: m.Src, Addr: m.Addr}
		canonical := net.route(nil, m2)
		net.Send(m2)
		if !net.routeBlocked(canonical) && (reused.m != m2 || !slices.Equal(reused.hops, canonical) || reused.canon != nil) {
			t.Fatalf("recycled tx routes %v (canon %v), want canonical %v", reused.hops, reused.canon, canonical)
		}
		eng.Run(0)
		check(2)
	})
}
