// Package check is a protocol conformance monitor: it observes the
// network's message stream (via xbar's Trace hook) and enforces
// message-level liveness and sanity rules that the coherence protocol
// must satisfy at every quiesce point:
//
//  1. every home-bound request (ReadReq/WriteReq) is eventually
//     consumed — delivered, or sunk by a switch directory;
//  2. every delivered CtoC request is answered by its target: a CtoC
//     reply to the requester plus a copyback/ownership-ack or a NoData
//     bounce;
//  3. every delivered invalidation is acknowledged;
//  4. every delivered writeback is acknowledged (possibly deferred);
//  5. no message is delivered more than once.
//
// The monitor is deliberately independent of the implementation's
// internal state — it sees only what crosses the wires, so it catches
// classes of bugs (dropped messages, orphaned transactions, duplicate
// deliveries) that state-based invariant checks can miss.
package check

import (
	"fmt"
	"sort"
	"strings"

	"dresar/internal/mesg"
	"dresar/internal/sim"
	"dresar/internal/xbar"
)

// ProtocolError is a structured protocol-hole diagnostic: a message
// arrived that the receiving controller's state machine cannot handle.
// Controllers report it through their Fail sink instead of panicking,
// so a protocol bug yields the failing cycle, component, and message
// rather than a stack trace.
type ProtocolError struct {
	// Cycle is the simulated time the unhandled message was processed.
	Cycle sim.Cycle
	// Where names the component ("home 3", "node 5").
	Where string
	// Op describes what went wrong ("unhandled message kind").
	Op string
	// Msg is the offending message, rendered at failure time (the
	// live message may be mutated afterwards).
	Msg string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("check: protocol error at cycle %d: %s: %s: %s", e.Cycle, e.Where, e.Op, e.Msg)
}

// Monitor accumulates protocol obligations from observed messages.
type Monitor struct {
	// outstanding home-bound requests by message ID.
	requests map[uint64]string
	// ctoc obligations: key owner/block -> count of unanswered
	// forwarded transfer requests.
	ctoc map[string]int
	// inval obligations: (target, block) -> unacked invalidations.
	inval map[string]int
	// wb obligations: (evictor, block) -> unacked writebacks.
	wb map[string]int
	// delivered tracks delivery uniqueness by message ID.
	delivered map[uint64]bool

	errs []string
}

// New returns an empty monitor.
func New() *Monitor {
	return &Monitor{
		requests:  make(map[uint64]string),
		ctoc:      make(map[string]int),
		inval:     make(map[string]int),
		wb:        make(map[string]int),
		delivered: make(map[uint64]bool),
	}
}

func key(node int, addr uint64) string { return fmt.Sprintf("P%d:%#x", node, addr) }

// Observe is compatible with xbar.Network.Trace.
func (m *Monitor) Observe(ev xbar.Event, at sim.Cycle, msg *mesg.Message) {
	switch ev.Kind {
	case xbar.EvSend, xbar.EvGen:
		m.onInject(msg)
	case xbar.EvDeliver:
		m.onDeliver(at, msg)
	case xbar.EvSink:
		m.onSink(msg)
	}
}

func (m *Monitor) onInject(msg *mesg.Message) {
	switch msg.Kind {
	case mesg.ReadReq, mesg.WriteReq:
		m.requests[msg.ID] = fmt.Sprintf("%v", msg)
	case mesg.CtoCReply:
		// The owner answered a transfer request.
		m.settle(m.ctoc, key(msg.Src.Node, msg.Addr))
	case mesg.CopyBack:
		if msg.NoData {
			m.settle(m.ctoc, key(msg.Src.Node, msg.Addr))
		}
	case mesg.InvalAck:
		m.settle(m.inval, key(msg.Requester, msg.Addr))
	case mesg.WBAck:
		m.settle(m.wb, key(msg.Dst.Node, msg.Addr))
	case mesg.ReadReply, mesg.WriteReply, mesg.CtoCReq, mesg.Inval,
		mesg.WriteBack, mesg.Nack, mesg.Retry:
		// No obligation opens or settles when these enter the network;
		// their bookkeeping happens at delivery.
	}
}

// settle decrements an obligation, tolerating benign over-settling
// (e.g. an owner serving both a home forward and a switch forward for
// the same block answers twice).
func (m *Monitor) settle(set map[string]int, k string) {
	if set[k] > 0 {
		set[k]--
		if set[k] == 0 {
			delete(set, k)
		}
	}
}

func (m *Monitor) onDeliver(at sim.Cycle, msg *mesg.Message) {
	if msg.ID != 0 {
		if m.delivered[msg.ID] {
			m.errs = append(m.errs, fmt.Sprintf("duplicate delivery of message %d (%v) at cycle %d", msg.ID, msg, at))
		}
		m.delivered[msg.ID] = true
	}
	switch msg.Kind {
	case mesg.ReadReq, mesg.WriteReq:
		delete(m.requests, msg.ID)
	case mesg.CtoCReq:
		m.ctoc[key(msg.Dst.Node, msg.Addr)]++
	case mesg.Inval:
		m.inval[key(msg.Dst.Node, msg.Addr)]++
	case mesg.WriteBack:
		if !msg.ForWrite {
			m.wb[key(msg.Src.Node, msg.Addr)]++
		}
	case mesg.Nack:
		// A nacked transfer settles the target's obligation.
		m.settle(m.ctoc, key(msg.Src.Node, msg.Addr))
	case mesg.ReadReply, mesg.WriteReply, mesg.CtoCReply, mesg.CopyBack,
		mesg.InvalAck, mesg.WBAck, mesg.Retry:
		// Replies and acknowledgments: their obligations were settled
		// at injection (onInject) or never existed.
	}
}

func (m *Monitor) onSink(msg *mesg.Message) {
	switch msg.Kind {
	case mesg.ReadReq, mesg.WriteReq:
		// Consumed by a switch directory: the obligation transfers to
		// the switch's generated messages, which the machine-level
		// liveness (Quiesced) covers.
		delete(m.requests, msg.ID)
	case mesg.CtoCReq:
		// Sunk home forward: the home re-drives; no owner obligation.
	case mesg.ReadReply, mesg.WriteReply, mesg.CtoCReply, mesg.CopyBack,
		mesg.WriteBack, mesg.Inval, mesg.InvalAck, mesg.WBAck,
		mesg.Nack, mesg.Retry:
		// Directories only ever sink requests and home forwards; a
		// sunk reply would already have tripped the duplicate-delivery
		// or liveness checks, so there is nothing to record here.
	}
}

// OutstandingReport renders every currently open obligation and every
// accumulated error, without judging them: mid-run the text describes
// in-flight work (the liveness watchdog dumps it when the machine
// stalls); at a quiesce point any output is a protocol violation.
// Empty string means nothing is outstanding.
func (m *Monitor) OutstandingReport() string {
	var b strings.Builder
	for _, e := range m.errs {
		fmt.Fprintln(&b, e)
	}
	report := func(name string, set map[string]int) {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "unmet %s obligation: %s (x%d)\n", name, k, set[k])
		}
	}
	if len(m.requests) > 0 {
		ids := make([]uint64, 0, len(m.requests))
		for id := range m.requests {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Fprintf(&b, "request %d never consumed: %s\n", id, m.requests[id])
		}
	}
	report("ctoc-answer", m.ctoc)
	report("inval-ack", m.inval)
	report("writeback-ack", m.wb)
	return b.String()
}

// AtQuiesce validates that no obligations remain. Call only when the
// machine reports quiescence.
func (m *Monitor) AtQuiesce() error {
	if r := m.OutstandingReport(); r != "" {
		return fmt.Errorf("check: protocol obligations violated:\n%s", r)
	}
	return nil
}
