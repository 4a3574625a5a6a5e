// Package xtestexport is a loader fixture: its external test package uses
// a declaration that only the in-package tests export.
package xtestexport

// Value is the type the external tests must see as one type along both
// of their import paths.
type Value int

func hidden() Value { return 1 }
