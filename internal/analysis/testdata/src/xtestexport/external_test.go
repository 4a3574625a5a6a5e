package xtestexport_test

import (
	"comparenb/internal/analysis/testdata/src/xtestexport"
	"comparenb/internal/analysis/testdata/src/xtestexport/use"
)

// doubledHidden type-checks only if Hidden comes from the test variant
// and use.Double takes that variant's Value.
func doubledHidden() xtestexport.Value {
	return use.Double(xtestexport.Hidden())
}
