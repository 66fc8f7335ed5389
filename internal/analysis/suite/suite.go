// Package suite assembles the complete dresar-lint analyzer set in one
// place, so the vet driver (cmd/dresar-lint), the benchmark, and the
// suite-level tests all run exactly the same checks.
package suite

import (
	"dresar/internal/analysis"
	"dresar/internal/analysis/ctxflow"
	"dresar/internal/analysis/detlint"
	"dresar/internal/analysis/fsyncorder"
	"dresar/internal/analysis/kindswitch"
	"dresar/internal/analysis/lockheld"
	"dresar/internal/analysis/msgown"
	"dresar/internal/analysis/statlint"
)

// All is the full suite in documentation order (docs/ANALYSIS.md): the
// four AST analyzers from the original gate, then the three CFG/dataflow
// analyzers over the concurrent serving layer.
var All = []*analysis.Analyzer{
	detlint.Analyzer,
	kindswitch.Analyzer,
	msgown.Analyzer,
	statlint.Analyzer,
	lockheld.Analyzer,
	ctxflow.Analyzer,
	fsyncorder.Analyzer,
}
