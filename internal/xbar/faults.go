// Network fault tolerance for the message-granularity BMIN model.
//
// Three fault classes are supported, mirroring the flit-level model in
// package flit and driven by fault.NetPlan:
//
//   - transient link corruption: an oracle installed per output link
//     (SetLinkCorrupter) decides, per transmission attempt, whether the
//     receiver's per-flit checksum rejects the message. Rejected
//     transmissions are replayed from the sender's bounded replay
//     buffer; at message granularity that is modeled as extended link
//     occupancy (re-serialization plus a nack round trip), credit-safe
//     because the downstream reservation is unchanged.
//
//   - hard link failure (DownLink): the directional link never carries
//     another message. Routing computes an alternate path around it —
//     another bundle lane, a different turnaround top, or a four-hop
//     leaf→top'→leaf'→top detour when the bundle factor is 1. A
//     destination whose only delivery link died is partitioned: the
//     message is dropped and a structured *UnroutableError is surfaced
//     through Network.Fail instead of hanging the machine.
//
//   - whole-switch failure (DownSwitch): the switch's arbitration and
//     directory intelligence dies but its crossbar datapath degrades to
//     a maintenance bypass, so unavoidable traversals (the switch is
//     the destination's only attachment) still pass at DegradedPenalty
//     extra cycles with the directory snoop skipped. Routing avoids
//     dead switches whenever an alternative exists. Full isolation of
//     a switch is expressed by failing its links individually.
//
// The fault-free fast path is a single integer test (faulty()); with
// no faults installed every route, timing, and event is bit-identical
// to the fault-oblivious fabric — pinned by TestZeroFaultEquivalence.
package xbar

import (
	"fmt"
	"slices"
	"strings"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/topo"
)

const (
	// DegradedPenalty is the extra per-traversal delay through a dead
	// switch: the datapath survives on the maintenance bypass but the
	// arbitration and directory pipelines are gone.
	DegradedPenalty = 16
	// RetxRoundTrip is the link-level nack + replay turnaround charged
	// per corrupted transmission, on top of re-serialization.
	RetxRoundTrip = 8
	// MaxLinkRetries bounds successive corrupted transmissions of one
	// message so a pathological oracle cannot occupy a link forever.
	MaxLinkRetries = 8
)

// UnroutableError reports a message whose destination became
// unreachable under the current link/switch fault state. The fabric
// drops the message and surfaces this error through Network.Fail
// rather than hanging until the watchdog trips.
type UnroutableError struct {
	At       sim.Cycle
	Kind     mesg.Kind
	Src, Dst mesg.End
	From     topo.SwitchID // where routing gave up
	Down     string        // DownReport snapshot
}

func (e *UnroutableError) Error() string {
	return fmt.Sprintf("xbar: unroutable %v %v->%v from %v at cycle %d (%s)",
		e.Kind, e.Src, e.Dst, e.From, e.At, e.Down)
}

// faulty is the fast path guard: zero means the fabric has never seen
// a fault and every fault-aware branch is skipped entirely.
func (n *Network) faulty() bool { return n.nFaults > 0 }

// DownLink marks the directional link leaving switch ordinal sw on
// output port out as hard-failed and revalidates every in-flight
// route. Endpoint delivery links may be failed too; messages for that
// endpoint then become unroutable.
func (n *Network) DownLink(sw int, out topo.Port) {
	ol := &n.switches[sw].out[out]
	if ol.down {
		return
	}
	ol.down = true
	n.nFaults++
	n.downLinks = append(n.downLinks, topo.Link{Sw: sw, Out: out})
	n.refloodRoutes()
}

// DownSwitch marks switch ordinal sw dead: its directory snoop stops,
// every traversal pays DegradedPenalty, and routing avoids it where an
// alternative path exists.
func (n *Network) DownSwitch(sw int) {
	s := &n.switches[sw]
	if s.down {
		return
	}
	s.down = true
	n.nFaults++
	n.downSwitches = append(n.downSwitches, s.id)
	n.refloodRoutes()
}

// SwitchIsDown reports whether switch ordinal sw has failed.
func (n *Network) SwitchIsDown(sw int) bool { return n.switches[sw].down }

// SetLinkCorrupter installs a transient-corruption oracle on one
// output link; each true draw corrupts one transmission attempt,
// forcing a checksum-detected link-level retransmit. Pass nil to
// clear.
func (n *Network) SetLinkCorrupter(sw int, out topo.Port, f func() bool) {
	ol := &n.switches[sw].out[out]
	if ol.corrupt == nil && f != nil {
		n.nFaults++
	}
	if ol.corrupt != nil && f == nil {
		n.nFaults--
	}
	ol.corrupt = f
}

// LinkCorrupts draws the link's corruption oracle once (false when no
// oracle is installed). Exposed for fault-plan introspection and tests;
// the fabric itself draws at grant time.
func (n *Network) LinkCorrupts(sw int, out topo.Port) bool {
	ol := &n.switches[sw].out[out]
	return ol.corrupt != nil && ol.corrupt()
}

// DownReport summarizes dead fabric elements for stall diagnostics;
// empty while the fabric is healthy.
func (n *Network) DownReport() string {
	if len(n.downLinks) == 0 && len(n.downSwitches) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("down:")
	for _, s := range n.downSwitches {
		fmt.Fprintf(&b, " switch %v", s)
	}
	for _, l := range n.downLinks {
		sw := &n.switches[l.Sw]
		if ol := sw.out[l.Out]; ol.toSwitch >= 0 {
			fmt.Fprintf(&b, " link %v:out%d->%v:in%d", sw.id, l.Out, n.switches[ol.toSwitch].id, ol.toPort)
		} else {
			fmt.Fprintf(&b, " link %v:out%d->%v", sw.id, l.Out, ol.toEnd)
		}
	}
	return b.String()
}

// unroutable drops t, which has left every queue, and reports the
// structured error naming the switch where its route gave up.
func (n *Network) unroutable(t *tx) {
	err := &UnroutableError{At: n.eng.Now(), Kind: t.m.Kind, Src: t.m.Src, Dst: t.m.Dst,
		From: t.hops[t.hopIdx].Sw, Down: n.DownReport()}
	n.freeTx(t)
	n.stats.Unroutable++
	n.fail(err)
}

// fail delivers a fabric error to the attached sink. Without a sink
// the error is unrecoverable by construction: panic rather than let a
// partition silently eat traffic.
func (n *Network) fail(err error) {
	if n.Fail != nil {
		n.Fail(err)
		return
	}
	panic(err)
}

// routeBlocked reports whether a residual route crosses a down link
// anywhere, or a dead switch beyond its current position (position 0
// is where the message already sits — unavoidable).
func (n *Network) routeBlocked(hops []topo.Hop) bool {
	for i, h := range hops {
		ord := n.tp.SwitchOrdinal(h.Sw)
		if i > 0 && n.switches[ord].down {
			return true
		}
		if n.switches[ord].out[h.Out].down {
			return true
		}
	}
	return false
}

// routeOrFail applies the fault overlay to t's freshly computed
// canonical route: unchanged when clean, rerouted around dead elements
// when possible, dropped with a structured error when the destination
// is partitioned. A detour is copied into t's own hop buffer after
// t.canon captures the canonical route's switch set, which gates
// directory snooping (see tx.onCanon). It returns false only in the
// drop case, when t has already gone back to the freelist and the
// caller must not inject it.
func (n *Network) routeOrFail(t *tx) bool {
	if !n.faulty() || !n.routeBlocked(t.hops) {
		return true
	}
	alt := n.altRoute(n.tp.SwitchOrdinal(t.hops[0].Sw), t.hops[0].In, t.m.Dst)
	if alt == nil {
		n.unroutable(t)
		return false
	}
	if !slices.Equal(alt, t.hops) {
		n.stats.Reroutes++
	}
	t.canon = switchSet(t.hops)
	t.hops = append(t.hops[:0], alt...)
	return true
}

// switchSet extracts the switches of a route.
func switchSet(hops []topo.Hop) []topo.SwitchID {
	set := make([]topo.SwitchID, len(hops))
	for i, h := range hops {
		set[i] = h.Sw
	}
	return set
}

// fixRoute makes t's residual route legal under the current fault
// state, splicing an alternate path from its current switch in place
// of the residual route when that crosses a dead element. Returns
// false when the destination is unreachable.
func (n *Network) fixRoute(t *tx) bool {
	rem := t.hops[t.hopIdx:]
	if !n.routeBlocked(rem) {
		return true
	}
	cur := rem[0]
	alt := n.altRoute(n.tp.SwitchOrdinal(cur.Sw), cur.In, t.m.Dst)
	if alt == nil {
		return false
	}
	if !slices.Equal(alt, rem) {
		n.stats.Reroutes++
		if t.canon == nil {
			// First detour: t.hops is still the canonical route.
			t.canon = switchSet(t.hops)
		}
		t.hops = append(t.hops[:t.hopIdx], alt...)
	}
	return true
}

// altRoute computes the cheapest path from switch ordinal start
// (entered on port in) to the endpoint dst over the live fabric graph:
// down links are forbidden edges, dead switches cost a large additive
// penalty so they are used only when no clean path exists. The search
// is a deterministic O(V²) Dijkstra over the actual wiring, so bundle
// lanes, alternate turnaround tops, and multi-hop detours all fall out
// of the same mechanism. Returns nil when dst is unreachable.
func (n *Network) altRoute(start int, in topo.Port, dst mesg.End) []topo.Hop {
	r := n.tp.Radix
	var goal int
	var endOut topo.Port
	if dst.Side == mesg.ProcSide {
		goal = n.tp.SwitchOrdinal(n.tp.LeafOf(dst.Node))
		endOut = topo.Port(dst.Node % r)
	} else {
		goal = n.tp.SwitchOrdinal(n.tp.TopOf(dst.Node))
		endOut = topo.Port(r + dst.Node%r)
	}
	if n.switches[goal].out[endOut].down {
		return nil // the endpoint's only delivery link is dead
	}
	const (
		inf      = 1 << 30
		degraded = 1 << 10 // any clean path beats any dead-switch path
	)
	total := len(n.switches)
	dist := make([]int, total)
	done := make([]bool, total)
	type pred struct {
		sw  int
		out topo.Port
	}
	prev := make([]pred, total)
	for i := range dist {
		dist[i] = inf
		prev[i].sw = -1
	}
	dist[start] = 0
	for {
		u := -1
		for i := range dist {
			if !done[i] && dist[i] < inf && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		if u == goal {
			break
		}
		usw := &n.switches[u]
		for p := range usw.out {
			ol := &usw.out[p]
			if ol.down || ol.toSwitch < 0 || done[ol.toSwitch] {
				continue
			}
			w := 1
			if n.switches[ol.toSwitch].down {
				w += degraded
			}
			if nd := dist[u] + w; nd < dist[ol.toSwitch] {
				dist[ol.toSwitch] = nd
				prev[ol.toSwitch] = pred{sw: u, out: topo.Port(p)}
			}
		}
	}
	if dist[goal] >= inf {
		return nil
	}
	var chain []pred
	for v := goal; v != start; v = prev[v].sw {
		chain = append(chain, prev[v])
	}
	hops := make([]topo.Hop, 0, len(chain)+1)
	curIn := in
	for i := len(chain) - 1; i >= 0; i-- {
		st := chain[i]
		sw := &n.switches[st.sw]
		hops = append(hops, topo.Hop{Sw: sw.id, In: curIn, Out: st.out})
		curIn = sw.out[st.out].toPort
	}
	hops = append(hops, topo.Hop{Sw: n.switches[goal].id, In: curIn, Out: endOut})
	return hops
}

// linkRetries draws the corruption oracle until a transmission goes
// through clean, bounded by MaxLinkRetries.
func (n *Network) linkRetries(ol *outLink) int {
	retries := 0
	for retries < MaxLinkRetries && ol.corrupt() {
		retries++
	}
	return retries
}

// dropQueued splices an unroutable message out of input queue (p, v)
// it already occupies, reports the structured error, and returns the
// vacated slot's credit as a pop would have. The arbitration candidates
// need no update: arrive drops t before registering it, and when t is
// the head, only reserved placeholders can sit behind it (landings fill
// reservations in order), so the queue has no landed head either way;
// refloodRoutes rebuilds them after its drops.
func (n *Network) dropQueued(sw *swc, p, v int, t *tx) {
	q := &sw.in[p][v]
	q.q = slices.DeleteFunc(q.q, func(e *tx) bool { return e == t })
	sw.queued--
	n.unroutable(t)
	n.afterPop(sw, p, v)
}

// refloodRoutes revalidates every queued or injection-pending
// message's residual route after a topology fault. Messages already
// serialized onto a wire are revalidated on arrival instead
// (arriveReserved). The walk is done in three ordered phases so no
// arbitration can fire while a doomed message still sits at a queue
// head: fix all routes, splice out the unroutable, then rebuild every
// switch's arbitration candidates from its (possibly rerouted) heads
// and re-kick the whole fabric (cheap — fault events are rare — and
// idempotent).
func (n *Network) refloodRoutes() {
	type doomed struct {
		sw   *swc
		p, v int
		t    *tx
	}
	var drops []doomed
	for i := range n.switches {
		sw := &n.switches[i]
		for p := range sw.in {
			for v := 0; v < VCsPerPort; v++ {
				for _, t := range sw.in[p][v].q {
					if t != nil && !n.fixRoute(t) {
						drops = append(drops, doomed{sw, p, v, t})
					}
				}
			}
		}
	}
	for _, d := range drops {
		n.dropQueued(d.sw, d.p, d.v, d.t)
	}
	for _, arr := range [][]injLink{n.injProc, n.injMem} {
		for i := range arr {
			il := &arr[i]
			kept := il.pending[:0]
			for _, t := range il.pending {
				if n.fixRoute(t) {
					kept = append(kept, t)
					continue
				}
				n.unroutable(t)
			}
			il.pending = kept
		}
	}
	for i := range n.switches {
		n.resyncCands(&n.switches[i])
		n.armArb(&n.switches[i])
	}
	for i := range n.injProc {
		n.pumpInjection(&n.injProc[i])
		n.pumpInjection(&n.injMem[i])
	}
}
