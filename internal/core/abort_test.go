package core

import (
	"errors"
	"testing"

	"dresar/internal/sim"
)

// reposter reschedules itself forever on one engine without ever
// marking progress: a runaway event source for cancellation and
// watchdog tests.
type reposter struct{ e *sim.Engine }

func (r *reposter) OnEvent(op int, arg uint64, data any) {
	r.e.AfterEvent(1, r, op, arg, nil)
}

// TestMachineAbortSerial: a tripped stop probe turns a serial Run into
// a typed *AbortError carrying the partial state (cycle reached,
// events still pending), instead of running forever.
func TestMachineAbortSerial(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.AtEvent(0, &reposter{m.Eng}, 0, 0, nil)
	polls := 0
	m.SetStopCheck(func() bool { polls++; return polls >= 2 })
	runErr := m.Run(0)
	var abort *AbortError
	if !errors.As(runErr, &abort) {
		t.Fatalf("Run returned %v, want *AbortError", runErr)
	}
	if abort.Pending == 0 {
		t.Fatalf("abort should report the still-pending events: %+v", abort)
	}
}

// TestWatchdogStallReposter pins the liveness watchdog on a runaway
// event source: a reposter on m.Eng that never marks progress must
// stop the run with a structured *StallError once Watchdog cycles pass
// without progress, never run forever.
func TestWatchdogStallReposter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Watchdog = 512
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.AtEvent(0, &reposter{m.Eng}, 0, 0, nil)
	runErr := m.Run(0)
	var stall *StallError
	if !errors.As(runErr, &stall) {
		t.Fatalf("Run returned %v, want *StallError", runErr)
	}
	if stall.SinceProgress < cfg.Watchdog {
		t.Fatalf("StallError reports %d cycles since progress, want >= %d", stall.SinceProgress, cfg.Watchdog)
	}
	if stall.Pending == 0 {
		t.Fatalf("stall should report the still-pending reposter event: %+v", stall)
	}
}
