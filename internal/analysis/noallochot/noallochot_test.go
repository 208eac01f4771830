package noallochot_test

import (
	"testing"

	"nomad/internal/analysis/analysistest"
	"nomad/internal/analysis/noallochot"
)

func TestNoAllocHot(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), noallochot.Analyzer, "noallochot/a", "noallochot/generic")
}
