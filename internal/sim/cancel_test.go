package sim

import "testing"

// reposter reschedules itself forever: an event source that never
// drains, standing in for a runaway simulation that only cooperative
// cancellation can stop.
type reposter struct{ e *Engine }

func (r *reposter) OnEvent(op int, arg uint64, data any) {
	r.e.AfterEvent(1, r, op, arg, nil)
}

// TestEngineStopCheck: the serial run loop polls the stop probe and
// winds down promptly — within one poll interval — marking the engine
// Aborted while leaving the unexecuted events queued.
func TestEngineStopCheck(t *testing.T) {
	e := NewEngine()
	r := &reposter{e}
	e.AtEvent(0, r, 0, 0, nil)
	polls := 0
	e.SetStopCheck(func() bool { polls++; return polls >= 3 })
	n := e.Run(0)
	if !e.Aborted() {
		t.Fatalf("engine not marked aborted after stop check tripped")
	}
	if n == 0 || n > 3*stopPollEvents {
		t.Fatalf("ran %d events; want >0 and <= %d (three poll intervals)", n, 3*stopPollEvents)
	}
	if e.Pending() == 0 {
		t.Fatalf("aborted run should leave the pending event queued")
	}
	// Re-arming clears the sticky mark and a nil probe runs free.
	e.SetStopCheck(nil)
	if e.Aborted() {
		t.Fatalf("SetStopCheck(nil) must clear Aborted")
	}
}

// TestEngineStopCheckDrain covers the bounded loops (Drain/RunUntil):
// the probe stops them too, without the clock jumping to the bound.
func TestEngineStopCheckDrain(t *testing.T) {
	e := NewEngine()
	r := &reposter{e}
	e.AtEvent(0, r, 0, 0, nil)
	e.SetStopCheck(func() bool { return true })
	e.Drain(1 << 30)
	if !e.Aborted() {
		t.Fatalf("Drain ignored the stop check")
	}
	if e.Now() >= 1<<30 {
		t.Fatalf("aborted Drain advanced the clock to the bound (now=%d)", e.Now())
	}
}
