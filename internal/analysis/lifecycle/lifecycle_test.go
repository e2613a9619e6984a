package lifecycle_test

import (
	"testing"

	"hypermodel/internal/analysis/analysistest"
	"hypermodel/internal/analysis/lifecycle"
)

func TestLifecycle(t *testing.T) {
	analysistest.Run(t, lifecycle.Analyzer, "lifecycle", "hypermodel/internal/storage/store")
}
