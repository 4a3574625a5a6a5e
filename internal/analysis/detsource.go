package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DetSource is the interprocedural determinism-taint analyzer. The
// pipeline's contract is that a seed determines the notebook byte for
// byte; the analyzer tracks the ways a function can observe something the
// seed does not determine — the wall clock, the global (unseeded) RNG,
// the process environment, CPU count, pointer addresses, unsorted map
// iteration — and flags any function in the output-producing packages
// (internal/notebook, internal/pipeline, internal/engine, internal/stats,
// internal/obs) that reaches one, directly or through any chain of calls
// anywhere in the module.
//
// Every function's local sources are exported as a "detsource.reaches"
// fact (packages visited in dependency order) and closed over the module
// call graph, so a helper three packages away that quietly starts calling
// time.Now turns into a finding at the hot package's call site.
//
// Sanctioned nondeterminism is carved out:
//   - time.Now / time.Since inside internal/obs, internal/governor,
//     internal/profile and internal/metric are the timing-histogram and
//     soft-budget subsystems — the one place wall-clock reads are the
//     point (timings are segregated from deterministic counters by
//     design; docs/OBSERVABILITY.md).
//   - seeded randomness (rand.New(rand.NewSource(seed)) and *rand.Rand
//     methods) is not a source; only the package-level math/rand
//     functions, which share the global source, are.
//   - runtime.GOMAXPROCS is not a source: thread count is a free
//     variable under the determinism-across-threads gate. runtime.NumCPU
//     is flagged.
//   - map iteration counts as a source only when it is order-observable
//     in maporder's sense (an unsorted range feeding a slice, stream or
//     channel); the blessed collect-then-sort idiom stays clean, and a
//     range suppressed with a justified //nolint:maporder does not taint
//     callers either.
//
// Remaining true-but-justified findings (the pipeline's run clock, the
// soft-deadline plumbing) are suppressed where they stand, each with a
// //nolint:detsource directive that says why, never silently.
var DetSource = &Analyzer{
	Name:          "detsource",
	Doc:           "flags notebook/report-producing functions that transitively reach a nondeterminism source",
	Run:           runDetSource,
	FactsFn:       detSourceFacts,
	FactsFinalize: detSourceFinalize,
	NoTestFiles:   true,
}

// detReachesFact is the "detsource.reaches" fact name.
const detReachesFact = "detsource.reaches"

// detHotPkgs are the output-producing packages whose functions must stay
// deterministic. Fixture packages under testdata/src are always in
// scope so the analyzer can be tested.
var detHotPkgs = map[string]bool{
	"comparenb/internal/notebook": true,
	"comparenb/internal/pipeline": true,
	"comparenb/internal/engine":   true,
	"comparenb/internal/stats":    true,
	"comparenb/internal/obs":      true,
}

// detTimeExemptPkgs may read the wall clock without becoming sources:
// the timing/telemetry and soft-budget subsystems.
var detTimeExemptPkgs = map[string]bool{
	"comparenb/internal/obs":      true,
	"comparenb/internal/governor": true,
	"comparenb/internal/profile":  true,
	"comparenb/internal/metric":   true,
}

// detScope reports whether the analyzer reports findings for pkgPath.
// Fixture subpackages named "helper" stay out of scope: they stand in for
// the cold, non-hot code whose taint must be imported transitively.
func detScope(pkgPath string) bool {
	if detHotPkgs[pkgPath] {
		return true
	}
	return strings.Contains(pkgPath, "testdata/src/") && !strings.HasSuffix(pkgPath, "/helper")
}

// concHotPkgs extends the concurrency-discipline analyzers (ctxloop,
// goroutinejoin) beyond the determinism hot set: the server's goroutines
// are long-lived by design, so an unjoined goroutine or a loop that never
// polls its context is a daemon-lifetime leak there, not a phase-lifetime
// one. detsource deliberately does NOT use this set — the serving layer
// may read the wall clock (latencies, queue waits); determinism of the
// notebook bytes is enforced where they are produced, in the pipeline.
var concHotPkgs = map[string]bool{
	"comparenb/internal/server": true,
}

// concScope reports whether the concurrency-discipline analyzers report
// findings for pkgPath: the determinism hot set plus the server.
func concScope(pkgPath string) bool {
	return detScope(pkgPath) || concHotPkgs[pkgPath]
}

// detSourceKind classifies a statically resolved callee as a
// nondeterminism source; empty string means clean.
func detSourceKind(fn *types.Func, inTimeExempt bool) string {
	full := fn.FullName()
	switch full {
	case "time.Now", "time.Since":
		if inTimeExempt {
			return ""
		}
		return full
	case "runtime.NumCPU":
		return full
	case "os.Getenv", "os.LookupEnv", "os.Environ":
		return full
	}
	// crypto/rand is the trace-id generator's sanctioned entropy source,
	// confined to internal/server; a determinism-gated package reaching
	// it (directly or through helpers) would leak per-run identifiers
	// into notebook bytes.
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "crypto/rand" {
		return full
	}
	// Package-level math/rand functions share the process-global, lazily
	// seeded source. Constructors taking an explicit seed and methods on
	// a *rand.Rand instance are deterministic given the seed.
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
		if fn.Type().(*types.Signature).Recv() != nil {
			return ""
		}
		if strings.HasPrefix(fn.Name(), "New") {
			return ""
		}
		return full
	}
	return ""
}

// detPointerFormat reports whether the call formats pointer addresses
// (%p), which differ between runs, returning a kind string.
func detPointerFormat(info *types.Info, call *ast.CallExpr) string {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return ""
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.BasicLit)
		if !ok || lit.Kind.String() != "STRING" {
			continue
		}
		if strings.Contains(lit.Value, "%p") || strings.Contains(lit.Value, "%#p") {
			return "fmt %p pointer formatting"
		}
	}
	return ""
}

// detSourceFacts exports each function's local sources.
func detSourceFacts(fp *FactPass) {
	pkg := fp.Pkg
	timeExempt := detTimeExemptPkgs[pkg.Path]
	mapTainted := detMapTaintedFuncs(pkg)
	for _, file := range pkg.AllFiles() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			kinds := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := CalleeFunc(pkg.Info, call); callee != nil {
					if k := detSourceKind(callee, timeExempt); k != "" {
						kinds[k] = true
					}
				}
				if k := detPointerFormat(pkg.Info, call); k != "" {
					kinds[k] = true
				}
				return true
			})
			if mapTainted[fd] {
				kinds["map iteration order"] = true
			}
			if len(kinds) == 0 {
				continue
			}
			val := map[string]string{}
			for k := range kinds {
				val[k] = "" // direct
			}
			fp.Facts.Export(FuncID(fn), detReachesFact, val)
		}
	}
}

// detMapTaintedFuncs finds functions containing an order-observable map
// range — maporder's own detection, minus findings its //nolint
// suppressions already justify.
func detMapTaintedFuncs(pkg *Package) map[*ast.FuncDecl]bool {
	var tmp []Diagnostic
	p := &Pass{
		Analyzer: MapOrder,
		Fset:     pkg.Fset,
		Files:    pkg.AllFiles(),
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		diags:    &tmp,
	}
	MapOrder.Run(p)
	tmp = suppress(collectNolint(pkg), tmp)
	out := map[*ast.FuncDecl]bool{}
	if len(tmp) == 0 {
		return out
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			for _, d := range tmp {
				if d.Pos.Filename == start.Filename && d.Pos.Line >= start.Line && d.Pos.Line <= end.Line {
					out[fd] = true
				}
			}
		}
	}
	return out
}

// detSourceFinalize closes the reaches fact over the call graph: a caller
// reaches every kind any callee reaches, recording the first hop for the
// diagnostic. The merge keeps the lexicographically smallest via so the
// result is independent of propagation order.
func detSourceFinalize(f *Facts) {
	f.Propagate(detReachesFact, func(cur, callee any, calleeID string) (any, bool) {
		cv := callee.(map[string]string)
		var cm map[string]string
		if cur != nil {
			cm = cur.(map[string]string)
		}
		changed := false
		for _, k := range sortedKeys(cv) {
			via, ok := cm[k]
			if ok && (via == "" || via <= calleeID) {
				continue
			}
			if cm == nil {
				cm = map[string]string{}
			}
			cm[k] = calleeID
			changed = true
		}
		return cm, changed
	})
}

// runDetSource reports, for each function in a hot package, the sources
// it reaches: direct source calls at their call site, and calls into
// tainted functions outside the hot set at the call site that imports the
// taint (taint already reported inside another hot package is not
// re-reported — the finding lives where the source is).
func runDetSource(p *Pass) {
	if !detScope(p.Path) {
		return
	}
	timeExempt := detTimeExemptPkgs[p.Path]
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			reported := map[string]bool{} // kind → already flagged in fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if k := detPointerFormat(p.Info, call); k != "" && !reported[k] {
					reported[k] = true
					p.Reportf(call.Pos(), "%s in %s: pointer addresses differ between runs; format values, not pointers", k, fn.Name())
				}
				callee := CalleeFunc(p.Info, call)
				if callee == nil {
					return true
				}
				if k := detSourceKind(callee, timeExempt); k != "" {
					if !reported[k] {
						reported[k] = true
						p.Reportf(call.Pos(), "nondeterminism source %s called in %s, which feeds notebook/report output; derive the value from the seed or config, or record it via obs timings", k, fn.Name())
					}
					return true
				}
				cid := FuncID(callee)
				if calleePkg := callee.Pkg(); calleePkg != nil && detScope(calleePkg.Path()) {
					// The callee is itself in a hot package: its taint is
					// reported at its own source, not at every caller.
					return true
				}
				if v, ok := p.Facts.Import(cid, detReachesFact); ok {
					for _, k := range sortedKeys(v.(map[string]string)) {
						key := cid + "|" + k
						if reported[key] {
							continue
						}
						reported[key] = true
						p.Reportf(call.Pos(), "call to %s reaches nondeterminism source %s in %s; the result must not influence notebook/report output", shortFuncID(cid), k, fn.Name())
					}
				}
				return true
			})
		}
	}
}

// sortedKeys returns m's keys in sorted order, for deterministic
// iteration.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shortFuncID trims the module prefix off a FuncID for readable
// diagnostics: "comparenb/internal/tap.SolveAnytime" → "tap.SolveAnytime".
func shortFuncID(id string) string {
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if strings.HasPrefix(id, "(") {
		if i := strings.Index(id, ")"); i > 0 {
			recv := strings.TrimPrefix(id[:i], "(")
			star := ""
			if strings.HasPrefix(recv, "*") {
				star, recv = "*", recv[1:]
			}
			return "(" + star + trim(recv) + id[i:]
		}
	}
	return trim(id)
}
