package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EncodedEq flags == and != where an operand is a float64 decoded from
// the compressed columnar layer — a call into internal/table that
// returns float64 (MeasColumn.Value and friends). The codec's contract
// is bit-for-bit losslessness, and plain float equality cannot check
// that contract: NaN == NaN is false even when the bits round-tripped
// exactly, and -0.0 == 0.0 is true even when they did not. Compare
// math.Float64bits of both sides instead, or justify the value-level
// comparison with //nolint:encodedeq.
//
// Unlike floateq this analyzer deliberately covers _test.go files —
// differential tests asserting the compressed and raw-alias views agree are
// exactly where a value-level == silently waves NaN regressions
// through.
var EncodedEq = &Analyzer{
	Name: "encodedeq",
	Doc:  "flags == / != against encoded-measure decode results; bit-identity needs math.Float64bits",
	Run:  runEncodedEq,
}

// encDecodePkg reports whether pkgPath is the compressed-storage
// package. The fixture's helper subpackage stands in for it so the
// analyzer can be tested without importing the real module.
func encDecodePkg(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/table") ||
		strings.HasSuffix(pkgPath, "testdata/src/encodedeq/helper")
}

func runEncodedEq(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			fn := encDecodeCall(p.Info, be.X)
			if fn == nil {
				fn = encDecodeCall(p.Info, be.Y)
			}
			if fn == nil {
				return true
			}
			p.Reportf(be.OpPos, "%s %s against a decoded measure value; the codec's contract is bit-for-bit, so compare math.Float64bits of both sides (NaN and -0.0 break value equality) or justify with //nolint:encodedeq", be.Op, fn.Name())
			return true
		})
	}
}

// encDecodeCall reports whether expr is a call into the compressed
// columnar package returning a plain float64, resolving interface
// method calls (MeasColumn.Value) to the interface's declaring package.
func encDecodeCall(info *types.Info, expr ast.Expr) *types.Func {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !encDecodePkg(fn.Pkg().Path()) {
		return nil
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return nil
	}
	b, ok := res.At(0).Type().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Float64 {
		return nil
	}
	return fn
}
