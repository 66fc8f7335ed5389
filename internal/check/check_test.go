package check

import (
	"strings"
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/topo"
	"dresar/internal/xbar"
)

// The lifecycle events the tests feed the monitor.
var (
	send    = xbar.Event{Kind: xbar.EvSend}
	deliver = xbar.Event{Kind: xbar.EvDeliver}
	sink    = xbar.Event{Kind: xbar.EvSink, Sw: topo.SwitchID{Stage: 1}}
)

func TestCleanRunPasses(t *testing.T) {
	m := New()
	rd := &mesg.Message{ID: 1, Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(1), Requester: 0}
	m.Observe(send, 0, rd)
	m.Observe(deliver, 10, rd)
	rp := &mesg.Message{ID: 2, Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(1), Dst: mesg.P(0)}
	m.Observe(send, 12, rp)
	m.Observe(deliver, 20, rp)
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestLostRequestDetected(t *testing.T) {
	m := New()
	rd := &mesg.Message{ID: 1, Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(1)}
	m.Observe(send, 0, rd)
	err := m.AtQuiesce()
	if err == nil || !strings.Contains(err.Error(), "never consumed") {
		t.Fatalf("err = %v", err)
	}
}

func TestSunkRequestIsConsumed(t *testing.T) {
	m := New()
	rd := &mesg.Message{ID: 1, Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(1)}
	m.Observe(send, 0, rd)
	m.Observe(sink, 5, rd)
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestUnansweredCtoCDetected(t *testing.T) {
	m := New()
	fw := &mesg.Message{ID: 3, Kind: mesg.CtoCReq, Addr: 0x40, Src: mesg.M(1), Dst: mesg.P(7), Requester: 2}
	m.Observe(deliver, 5, fw)
	err := m.AtQuiesce()
	if err == nil || !strings.Contains(err.Error(), "ctoc-answer") {
		t.Fatalf("err = %v", err)
	}
	// Answering clears it.
	m2 := New()
	m2.Observe(deliver, 5, fw)
	m2.Observe(send, 6, &mesg.Message{ID: 4, Kind: mesg.CtoCReply, Addr: 0x40, Src: mesg.P(7), Dst: mesg.P(2)})
	if err := m2.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestNoDataBounceSettlesCtoC(t *testing.T) {
	m := New()
	fw := &mesg.Message{ID: 3, Kind: mesg.CtoCReq, Addr: 0x40, Src: mesg.M(1), Dst: mesg.P(7), Requester: 2, Marked: true}
	m.Observe(deliver, 5, fw)
	m.Observe(send, 6, &mesg.Message{ID: 5, Kind: mesg.CopyBack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.M(1), NoData: true, Marked: true})
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalAndWritebackObligations(t *testing.T) {
	m := New()
	inv := &mesg.Message{ID: 6, Kind: mesg.Inval, Addr: 0x40, Src: mesg.M(1), Dst: mesg.P(3), Requester: 9}
	m.Observe(deliver, 5, inv)
	wb := &mesg.Message{ID: 7, Kind: mesg.WriteBack, Addr: 0x80, Src: mesg.P(4), Dst: mesg.M(2), Data: 1}
	m.Observe(deliver, 6, wb)
	err := m.AtQuiesce()
	if err == nil || !strings.Contains(err.Error(), "inval-ack") || !strings.Contains(err.Error(), "writeback-ack") {
		t.Fatalf("err = %v", err)
	}
	m.Observe(send, 8, &mesg.Message{ID: 8, Kind: mesg.InvalAck, Addr: 0x40, Src: mesg.P(3), Dst: mesg.M(1), Requester: 3})
	m.Observe(send, 9, &mesg.Message{ID: 9, Kind: mesg.WBAck, Addr: 0x80, Src: mesg.M(2), Dst: mesg.P(4)})
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateDeliveryDetected(t *testing.T) {
	m := New()
	rp := &mesg.Message{ID: 2, Kind: mesg.ReadReply, Addr: 0x40, Src: mesg.M(1), Dst: mesg.P(0)}
	m.Observe(send, 0, rp)
	m.Observe(deliver, 5, rp)
	m.Observe(deliver, 9, rp)
	err := m.AtQuiesce()
	if err == nil || !strings.Contains(err.Error(), "duplicate delivery") {
		t.Fatalf("err = %v", err)
	}
}

func TestOverSettlingTolerated(t *testing.T) {
	// An owner answering twice (home forward + switch forward) must
	// not underflow.
	m := New()
	m.Observe(send, 6, &mesg.Message{ID: 4, Kind: mesg.CtoCReply, Addr: 0x40, Src: mesg.P(7), Dst: mesg.P(2)})
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredWBAckRefcount(t *testing.T) {
	// Two writebacks from the same evictor for the same block (an
	// eviction racing a refetch-then-evict) each demand their own ack:
	// a single deferred WBAck must leave one obligation standing.
	m := New()
	wb1 := &mesg.Message{ID: 10, Kind: mesg.WriteBack, Addr: 0x80, Src: mesg.P(4), Dst: mesg.M(2), Data: 1}
	wb2 := &mesg.Message{ID: 11, Kind: mesg.WriteBack, Addr: 0x80, Src: mesg.P(4), Dst: mesg.M(2), Data: 2}
	m.Observe(deliver, 5, wb1)
	m.Observe(deliver, 9, wb2)
	m.Observe(send, 30, &mesg.Message{ID: 12, Kind: mesg.WBAck, Addr: 0x80, Src: mesg.M(2), Dst: mesg.P(4)})
	err := m.AtQuiesce()
	if err == nil || !strings.Contains(err.Error(), "writeback-ack") || !strings.Contains(err.Error(), "x1") {
		t.Fatalf("err = %v", err)
	}
	// The second (deferred) ack clears it.
	m.Observe(send, 60, &mesg.Message{ID: 13, Kind: mesg.WBAck, Addr: 0x80, Src: mesg.M(2), Dst: mesg.P(4)})
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipWriteBackCarriesNoObligation(t *testing.T) {
	// A WriteBack{ForWrite} is the ownership-transfer notice of a CtoC
	// write forward; the home never acks it, so it must not create a
	// writeback-ack obligation.
	m := New()
	wb := &mesg.Message{ID: 14, Kind: mesg.WriteBack, Addr: 0x80, Src: mesg.P(4), Dst: mesg.M(2), ForWrite: true}
	m.Observe(deliver, 5, wb)
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestNackSettlesCtoC(t *testing.T) {
	// An owner that no longer holds the block answers the forward with
	// a Nack to the requester; that settles its transfer obligation.
	m := New()
	fw := &mesg.Message{ID: 15, Kind: mesg.CtoCReq, Addr: 0x40, Src: mesg.M(1), Dst: mesg.P(7), Requester: 2}
	m.Observe(deliver, 5, fw)
	nack := &mesg.Message{ID: 16, Kind: mesg.Nack, Addr: 0x40, Src: mesg.P(7), Dst: mesg.P(2), Requester: 2}
	m.Observe(send, 6, nack)
	m.Observe(deliver, 12, nack)
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateDeliveryOfRetransmittedCopyIsDistinct(t *testing.T) {
	// An NI retransmission is a NEW network message (fresh ID) for the
	// same transaction; delivering both copies is legal at the network
	// level and must not trip the duplicate-delivery rule.
	m := New()
	rd1 := &mesg.Message{ID: 20, Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(1), Tx: 77}
	rd2 := &mesg.Message{ID: 21, Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(1), Tx: 77}
	for _, msg := range []*mesg.Message{rd1, rd2} {
		m.Observe(send, 0, msg)
		m.Observe(deliver, 10, msg)
	}
	if err := m.AtQuiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestOutstandingReportShape(t *testing.T) {
	m := New()
	if r := m.OutstandingReport(); r != "" {
		t.Fatalf("fresh monitor reports %q", r)
	}
	m.Observe(send, 0, &mesg.Message{ID: 3, Kind: mesg.WriteReq, Addr: 0x80, Src: mesg.P(1), Dst: mesg.M(2)})
	m.Observe(send, 0, &mesg.Message{ID: 1, Kind: mesg.ReadReq, Addr: 0x40, Src: mesg.P(0), Dst: mesg.M(1)})
	m.Observe(deliver, 4, &mesg.Message{ID: 5, Kind: mesg.Inval, Addr: 0xc0, Src: mesg.M(1), Dst: mesg.P(3)})
	r := m.OutstandingReport()
	for _, want := range []string{"request 1 never consumed", "request 3 never consumed", "unmet inval-ack obligation: P3:0xc0"} {
		if !strings.Contains(r, want) {
			t.Fatalf("report missing %q:\n%s", want, r)
		}
	}
	// Requests are listed in ID order for stable diagnostics.
	if strings.Index(r, "request 1") > strings.Index(r, "request 3") {
		t.Fatalf("report not sorted by ID:\n%s", r)
	}
}

func TestProtocolErrorRendering(t *testing.T) {
	err := &ProtocolError{Cycle: 42, Where: "home 3", Op: "unhandled message kind", Msg: "WBAck 0x40"}
	for _, want := range []string{"cycle 42", "home 3", "unhandled message kind", "WBAck 0x40"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ProtocolError missing %q: %v", want, err)
		}
	}
}
