// Package a is the statlint fixture: it writes another package's
// Stats counters every way the analyzer distinguishes.
package a

import (
	"dresar/internal/fault"
	"dresar/internal/xbar"
)

// increments are the legal cross-package writes.
func increments(s *xbar.Stats) {
	s.Sent++
	s.Delivered += 2
}

// assignment rewrites history — reserved for the owning package.
func assignment(s *xbar.Stats) {
	s.Sent = 0 // want `statlint: assignment to dresar/internal/xbar\.Stats field`
}

// decrement makes a counter non-monotonic.
func decrement(s *xbar.Stats) {
	s.Sent-- // want `statlint: -- to dresar/internal/xbar\.Stats field`
}

// subAssign likewise.
func subAssign(s *xbar.Stats) {
	s.FlitHops -= 1 // want `statlint: -= to dresar/internal/xbar\.Stats field`
}

// wholeReset overwrites every counter at once (through fault's
// exported Stats field).
func wholeReset(in *fault.Injector) {
	in.Stats = fault.Stats{} // want `statlint: assignment to dresar/internal/fault\.Stats field`
}

// snapshot copies counters into a local — reading is fine.
func snapshot(in *fault.Injector) uint64 {
	s := in.Stats
	return s.NetCorrupted
}

// suppressed: the //lint:ignore marker must drop the finding.
func suppressed(s *xbar.Stats) {
	//lint:ignore statlint fixture proves the marker works
	s.Sent = 0
}
