// Facts layer: the interprocedural half of the suite.
//
// The PR 1 analyzers were intraprocedural — each looked at one function
// body at a time. The determinism and robustness rules they encode are
// really *transitive* properties, though: a notebook producer is
// nondeterministic if anything it calls, at any depth, reads the clock or
// the global RNG; a loop checkpoint counts even when the ctx poll happens
// two calls down. This file provides the machinery for that reasoning,
// following the shape of golang.org/x/tools/go/analysis facts without the
// dependency: analyzers export per-function facts while packages are
// visited in dependency order, a module-wide call graph links the
// functions, and a deterministic fixpoint propagates facts from callees
// to callers (handling recursion, which a single bottom-up pass cannot).
//
// Functions are keyed by their stable full name
// ("comparenb/internal/pipeline.parallelForCtx",
// "(comparenb/internal/engine.CubeCache).GetOrBuild") rather than by
// types.Object identity, because a package is type-checked twice — once
// plain for the import cache, once with its test files folded in — and
// the two variants produce distinct objects for the same function.
package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Facts is the module-wide fact store plus the static call graph it
// propagates over. One Facts value is shared by every analyzer in a
// RunModule invocation.
type Facts struct {
	// calls maps a function's ID to its statically resolved callees,
	// sorted and deduplicated. Calls through interfaces and function
	// values are not resolved (the graph is a may-call underapproximation
	// on those edges).
	calls map[string][]string
	// callers is the reverse graph, built on demand for propagation.
	callers map[string][]string
	store   map[factKey]any
}

type factKey struct {
	fn   string // FuncID
	name string // fact name, by convention "<analyzer>.<fact>"
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{calls: map[string][]string{}, store: map[factKey]any{}}
}

// FuncID returns the stable identifier facts are keyed by.
func FuncID(fn *types.Func) string { return fn.FullName() }

// Export records a fact about fn. Later exports overwrite earlier ones,
// so FactsFn hooks must be idempotent per function.
func (f *Facts) Export(id, name string, val any) {
	f.store[factKey{fn: id, name: name}] = val
}

// Import retrieves a fact about fn, reporting whether one was exported.
func (f *Facts) Import(id, name string) (any, bool) {
	v, ok := f.store[factKey{fn: id, name: name}]
	return v, ok
}

// FactPass hands one package to an analyzer's FactsFn hook. Packages are
// visited in dependency order, so by the time a package's hook runs, the
// local facts of everything it imports have been exported (propagation
// afterwards closes recursive and test-edge cycles).
type FactPass struct {
	Pkg   *Package
	Facts *Facts
}

// BuildFacts constructs the call graph over pkgs and runs every
// analyzer's FactsFn in dependency order, then the FactsFinalize hooks
// (which typically call Propagate). pkgs may be any subset of the module
// — fixture tests pass a single package.
func BuildFacts(pkgs []*Package, analyzers []*Analyzer) *Facts {
	facts := NewFacts()
	ordered := depOrder(pkgs)
	for _, pkg := range ordered {
		facts.addCallEdges(pkg)
	}
	for _, pkg := range ordered {
		for _, a := range analyzers {
			if a.FactsFn != nil {
				a.FactsFn(&FactPass{Pkg: pkg, Facts: facts})
			}
		}
	}
	for _, a := range analyzers {
		if a.FactsFinalize != nil {
			a.FactsFinalize(facts)
		}
	}
	return facts
}

// depOrder topologically sorts packages so imports come before importers.
// Test-only import edges may form cycles (a package's tests importing a
// helper that imports the package); those are broken deterministically —
// propagation's fixpoint makes the residual order immaterial.
func depOrder(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	indeg := map[string]int{}
	dependents := map[string][]string{}
	for _, p := range pkgs {
		indeg[p.Path] += 0
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok && dep != p {
				dependents[dep.Path] = append(dependents[dep.Path], p.Path)
				indeg[p.Path]++
			}
		}
	}
	var ready []string
	for path, d := range indeg {
		if d == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	var out []*Package
	seen := map[string]bool{}
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		out = append(out, byPath[path])
		seen[path] = true
		next := append([]string(nil), dependents[path]...)
		sort.Strings(next)
		for _, dep := range next {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(out) < len(pkgs) {
		// Cycle remainder (test-edge loops): append in path order.
		var rest []string
		for path := range byPath {
			if !seen[path] {
				rest = append(rest, path)
			}
		}
		sort.Strings(rest)
		for _, path := range rest {
			out = append(out, byPath[path])
		}
	}
	return out
}

// addCallEdges records the static call edges of every top-level function
// declared in pkg (closures are attributed to their enclosing
// declaration).
func (f *Facts) addCallEdges(pkg *Package) {
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
			id := FuncID(fn)
			seen := map[string]bool{}
			for _, callee := range f.calls[id] {
				seen[callee] = true
			}
			callees := f.calls[id]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := CalleeFunc(pkg.Info, call); callee != nil {
					cid := FuncID(callee)
					if !seen[cid] {
						seen[cid] = true
						callees = append(callees, cid)
					}
				}
				return true
			})
			sort.Strings(callees)
			f.calls[id] = callees
		}
	}
}

// CalleeFunc resolves a call expression to its statically known callee:
// a plain function, a package-qualified function, or a method whose
// receiver type is concrete. Calls through interfaces resolve to the
// interface method (which never carries facts); calls through function
// values resolve to nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Callees returns the recorded static callees of id.
func (f *Facts) Callees(id string) []string { return f.calls[id] }

// Propagate closes fact `name` over the call graph: whenever a callee
// holds the fact, merge derives the caller's value from its current value
// (nil if absent) and the callee's. merge returns the new value and
// whether it changed; propagation iterates to a fixpoint, so recursive
// call cycles converge as long as merge is monotone (it must eventually
// stop reporting change). Iteration order is deterministic — callers are
// visited in sorted order each round — so the resulting facts, and every
// diagnostic derived from them, are stable across runs.
func (f *Facts) Propagate(name string, merge func(cur, callee any, calleeID string) (any, bool)) {
	ids := make([]string, 0, len(f.calls))
	for id := range f.calls {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			cur, _ := f.Import(id, name)
			for _, callee := range f.calls[id] {
				cv, ok := f.Import(callee, name)
				if !ok {
					continue
				}
				next, ch := merge(cur, cv, callee)
				if ch {
					cur = next
					f.Export(id, name, cur)
					changed = true
				}
			}
		}
	}
}
