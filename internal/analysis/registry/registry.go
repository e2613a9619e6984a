// Package registry enumerates the hyperlint analyzers. It lives
// apart from package analysis so the framework does not import its
// own analyzers.
package registry

import (
	"hypermodel/internal/analysis"
	"hypermodel/internal/analysis/detrand"
	"hypermodel/internal/analysis/erris"
	"hypermodel/internal/analysis/facade"
	"hypermodel/internal/analysis/lifecycle"
	"hypermodel/internal/analysis/lockorder"
	"hypermodel/internal/analysis/vfsonly"
	"hypermodel/internal/analysis/wiresym"
)

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		erris.Analyzer,
		facade.Analyzer,
		lifecycle.Analyzer,
		lockorder.Analyzer,
		vfsonly.Analyzer,
		wiresym.Analyzer,
	}
}
