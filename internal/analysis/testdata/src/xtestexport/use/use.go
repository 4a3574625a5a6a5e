// Package use imports the fixture under test, so the loader must re-check
// it against the test variant for the external tests.
package use

import "comparenb/internal/analysis/testdata/src/xtestexport"

// Double returns twice v.
func Double(v xtestexport.Value) xtestexport.Value { return 2 * v }
