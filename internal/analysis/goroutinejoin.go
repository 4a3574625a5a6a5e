package analysis

import (
	"go/ast"
	"go/types"
)

// GoroutineJoin requires every `go` statement to have a matching join in
// the function that starts it: a WaitGroup.Wait call, a channel receive
// (`<-ch`, `range ch`, or a select receive), which is how every worker
// pool in this module joins (parallelForCtx, forEachShardCtx, the stats
// block pools). A goroutine with no join outlives its phase — exactly
// the leak the runtime gate in internal/testutil hunts for dynamically,
// caught here at compile time instead.
//
// Two escape hatches keep the rule honest rather than noisy:
//   - a function whose signature hands the join to its caller — it
//     returns a channel, or takes a *sync.WaitGroup the goroutine is
//     registered on — is exempt, but exports a
//     "goroutinejoin.unjoined" fact;
//   - hot-package callers of a function carrying that fact are flagged
//     at the call site unless they themselves join, so the obligation
//     follows the goroutine across package boundaries instead of
//     evaporating.
var GoroutineJoin = &Analyzer{
	Name:    "goroutinejoin",
	Doc:     "flags go statements with no matching join (WaitGroup.Wait or channel receive)",
	Run:     runGoroutineJoin,
	FactsFn: goroutineJoinFacts,
}

// goUnjoinedFact marks functions that start a goroutine they do not
// join, relying on their caller (or nobody) to do it.
const goUnjoinedFact = "goroutinejoin.unjoined"

// goroutineJoinFacts exports the unjoined fact for functions that start
// goroutines without local join evidence.
func goroutineJoinFacts(fp *FactPass) {
	pkg := fp.Pkg
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
			if len(goStmts(fd)) > 0 && !joinsLocally(pkg.Info, fd) {
				fp.Facts.Export(FuncID(fn), goUnjoinedFact, true)
			}
		}
	}
}

// goStmts collects the go statements lexically inside fd.
func goStmts(fd *ast.FuncDecl) []*ast.GoStmt {
	var out []*ast.GoStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			out = append(out, g)
		}
		return true
	})
	return out
}

// joinsLocally reports whether fd contains join evidence: a
// WaitGroup.Wait call, a channel receive expression, or a range over a
// channel. Evidence inside a go statement does not count: a worker that
// ranges over its job channel is the goroutine's own work, not its join.
func joinsLocally(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if isWaitGroupType(info.TypeOf(sel.X)) {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isWaitGroupType reports whether t is (a pointer to) sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// delegatesJoin reports whether fd's signature hands the join to the
// caller: it returns a channel, or takes a *sync.WaitGroup parameter.
func delegatesJoin(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results != nil {
		for _, res := range fd.Type.Results.List {
			if t := info.TypeOf(res.Type); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					return true
				}
			}
		}
	}
	if fd.Type.Params != nil {
		for _, par := range fd.Type.Params.List {
			if isWaitGroupType(info.TypeOf(par.Type)) {
				return true
			}
		}
	}
	return false
}

func runGoroutineJoin(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			gos := goStmts(fd)
			if len(gos) == 0 || joinsLocally(p.Info, fd) || delegatesJoin(p.Info, fd) {
				continue
			}
			for _, g := range gos {
				p.Reportf(g.Pos(), "goroutine started in %s has no matching join (WaitGroup.Wait or channel receive); it outlives the phase that spawned it", fd.Name.Name)
			}
		}
	}
	runGoroutineJoinCalls(p)
}

// runGoroutineJoinCalls flags hot-package calls to functions carrying
// the unjoined fact when the caller does not join either. Scope is the
// determinism hot set plus the server package (concScope): a leaked
// goroutine in the serving path outlives not just a phase but the daemon.
func runGoroutineJoinCalls(p *Pass) {
	if !concScope(p.Path) {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if joinsLocally(p.Info, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := CalleeFunc(p.Info, call)
				if callee == nil {
					return true
				}
				if _, ok := p.Facts.Import(FuncID(callee), goUnjoinedFact); ok {
					p.Reportf(call.Pos(), "call to %s starts a goroutine this function never joins; receive its channel or wait its WaitGroup before returning", shortFuncID(FuncID(callee)))
				}
				return true
			})
		}
	}
}
