package sim

import (
	"sort"
	"testing"
)

// TestAtIntoPastUnderArmedWatchdog schedules into the past while the
// watchdog is armed: the event must clamp to Now (never rewinding the
// clock), fire this cycle, and the watchdog must neither trip from the
// clamp nor miss a genuine stall that follows it.
func TestAtIntoPastUnderArmedWatchdog(t *testing.T) {
	e := NewEngine()
	tripped := false
	e.SetWatchdog(100, func(now, since Cycle) { tripped = true })

	var fired []Cycle
	e.At(50, func() {
		// From cycle 50, aim at cycle 10: the engine must clamp to
		// 50, not travel backwards.
		e.At(10, func() { fired = append(fired, e.Now()) })
		e.Progress()
	})
	e.RunUntil(60)
	if len(fired) != 1 || fired[0] != 50 {
		t.Fatalf("past-scheduled event fired at %v, want [50]", fired)
	}
	if tripped || e.Stalled() {
		t.Fatalf("watchdog tripped on a clamped past schedule")
	}

	// The clamp must not have disturbed the watchdog bookkeeping:
	// a genuine livelock afterwards still trips at the bound.
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	e.Drain(10_000)
	if !tripped || !e.Stalled() {
		t.Fatalf("watchdog failed to trip on livelock after clamped schedule")
	}
	if since := e.SinceProgress(); since < 100 {
		t.Fatalf("tripped with SinceProgress=%d, want >= 100", since)
	}
}

// TestPendingAcrossSameCycleBursts checks the event count through a
// burst of same-cycle schedules, including events scheduled for the
// current cycle from inside a handler (which must run before the clock
// moves, draining the same bucket that is being appended to).
func TestPendingAcrossSameCycleBursts(t *testing.T) {
	e := NewEngine()
	const burst = 100
	ran := 0
	for i := 0; i < burst; i++ {
		e.At(5, func() {
			ran++
			if ran <= 3 {
				// Re-burst at the same cycle from inside a handler.
				e.At(5, func() { ran++ })
			}
		})
	}
	if got := e.Pending(); got != burst {
		t.Fatalf("Pending=%d before run, want %d", got, burst)
	}
	e.RunUntil(5)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending=%d after same-cycle burst, want 0", got)
	}
	if want := burst + 3; ran != want {
		t.Fatalf("ran %d events, want %d", ran, want)
	}
	if e.Now() != 5 {
		t.Fatalf("Now=%d after burst, want 5", e.Now())
	}
}

// refQueue is the reference scheduler for the differential test: a
// slice kept sorted by (cycle, scheduling order), popped from the
// front. It defines the firing order the calendar queue must match
// event for event, with none of its machinery (ring, far heap,
// earliest-cycle cache, in-place slots).
type refQueue struct {
	now Cycle
	evs []refEvent
}

type refEvent struct {
	at Cycle
	fn func()
}

func (q *refQueue) Now() Cycle { return q.now }

// At inserts fn after every pending event at or before t, which is
// (cycle, sequence) order because insertions arrive in sequence order.
func (q *refQueue) At(t Cycle, fn func()) {
	if t < q.now {
		t = q.now
	}
	i := sort.Search(len(q.evs), func(i int) bool { return q.evs[i].at > t })
	q.evs = append(q.evs, refEvent{})
	copy(q.evs[i+1:], q.evs[i:])
	q.evs[i] = refEvent{at: t, fn: fn}
}

func (q *refQueue) After(d Cycle, fn func()) { q.At(q.now+d, fn) }

func (q *refQueue) Run(limit int) int {
	n := 0
	for len(q.evs) > 0 && (limit <= 0 || n < limit) {
		ev := q.evs[0]
		q.evs = q.evs[1:]
		q.now = ev.at
		ev.fn()
		n++
	}
	return n
}

// scheduler is the closure-scheduling surface both queues share.
type scheduler interface {
	Now() Cycle
	At(Cycle, func())
	After(Cycle, func())
	Run(int) int
}

// funcActor fires the closure carried in an event's data word, so the
// differential test can route half its events through AtEvent.
type funcActor struct{}

func (funcActor) OnEvent(op int, arg uint64, data any) { data.(func())() }

// TestHeapCalendarDifferential replays one randomized schedule on the
// calendar engine and on the reference queue and
// requires identical execution traces: (cycle, id) for every fired
// event, with self-rescheduling handlers that stress the near/far
// boundary (offsets straddling the calendar window) and same-cycle
// FIFO order. On the engine, odd ids go through AfterEvent and even
// ids through After, so reused bucket slots alternate between closure
// and actor payloads.
func TestHeapCalendarDifferential(t *testing.T) {
	type step struct {
		at Cycle
		id int
	}
	run := func(e scheduler) []step {
		rng := NewRNG(0xD1FF)
		var trace []step
		nextID := 0
		// A fixed menu of offsets crossing the calendar window (1024):
		// same-cycle, near, boundary-1, boundary, and far.
		offsets := []Cycle{0, 1, 3, 1023, 1024, 1025, 5000}
		var fire func(id, depth int) func()
		fire = func(id, depth int) func() {
			return func() {
				trace = append(trace, step{e.Now(), id})
				if depth > 0 {
					for i := 0; i < 2; i++ {
						nextID++
						d := offsets[rng.Intn(len(offsets))]
						f := fire(nextID, depth-1)
						if eng, ok := e.(*Engine); ok && nextID%2 == 1 {
							eng.AfterEvent(d, funcActor{}, 0, 0, f)
						} else {
							e.After(d, f)
						}
					}
				}
			}
		}
		for i := 0; i < 32; i++ {
			nextID++
			e.At(Cycle(rng.Intn(2000)), fire(nextID, 3))
		}
		e.Run(1_000_000)
		return trace
	}
	// Every run draws from an identically-seeded RNG, so the schedules
	// are the same; only the queue implementation differs.
	ref := run(&refQueue{})
	if len(ref) == 0 {
		t.Fatal("empty trace")
	}
	cal := run(NewEngine())
	if len(cal) != len(ref) {
		t.Fatalf("trace length: calendar=%d reference=%d", len(cal), len(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("trace diverges at %d: calendar=%+v reference=%+v", i, cal[i], ref[i])
		}
	}
}
