package analysis

// All returns every analyzer in the suite, in stable (alphabetical)
// order. Both the comparenb-vet CLI and the selfcheck test run exactly
// this list, so the command line and the test suite can never disagree
// about the rules.
func All() []*Analyzer {
	return []*Analyzer{
		CtxLoop,
		DetSource,
		ErrCheck,
		FloatEq,
		GoroutineJoin,
		MapOrder,
		NolintLint,
		NoPanic,
		SpanEnd,
	}
}

// CheckModule loads every package of the module containing dir and runs
// the whole suite over them, returning all surviving diagnostics sorted
// by position: what cmd/comparenb-vet prints.
func CheckModule(dir string) ([]Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	return RunModule(pkgs, All()), nil
}
