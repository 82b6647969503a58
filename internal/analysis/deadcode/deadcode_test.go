package deadcode_test

import (
	"slices"
	"testing"

	"repro/internal/analysis/analyzertest"
	"repro/internal/analysis/checker"
	"repro/internal/analysis/deadcode"
)

func TestDeadcode(t *testing.T) {
	if !slices.Contains(checker.Analyzers(), deadcode.Analyzer) {
		t.Fatal("deadcode is not in checker.Analyzers(), so CI's lint lane does not run it")
	}
	analyzertest.Run(t, deadcode.Analyzer, "./testdata/src/...")
}
