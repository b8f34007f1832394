package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the bitwise-reproducibility contract: every fast path
// in the tree is proven equivalent to its oracle on fixed seeds, which only
// means anything if no wall-clock, global-RNG, or map-iteration
// nondeterminism can leak into the replayed sequences. In the deterministic
// packages (engine, pagerank, salsa, repair, walkstore, gen) it forbids:
//
//   - time.Now / time.Since — wall-clock reads;
//   - the global math/rand and math/rand/v2 convenience functions (Intn,
//     Float64, Shuffle, …) — process-global RNG state; constructing local
//     sources (New, NewSource, NewPCG, NewZipf, NewChaCha8) stays legal;
//   - ranging over a map when the loop body draws from an RNG, emits a WAL
//     record, or appends to a batch declared outside the loop — Go's map
//     order would silently reorder coin flips, journal records, or batch
//     contents between runs (the exact bug class the seeded-shuffle fix in
//     gen.RandomPermutationStream patched by hand). Collect-then-sort
//     loops are legitimate and carry a //lint:allow determinism note.
//
// Test files are exempt: the fixed-seed suites own their determinism
// obligations explicitly.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall clock, global RNG, or order-sensitive map iteration in the deterministic packages",
	Run:  runDeterminism,
}

// deterministicPkgs names the packages under the bitwise-reproducibility
// contract, by package name.
var deterministicPkgs = map[string]bool{
	"engine":    true,
	"pagerank":  true,
	"repair":    true,
	"salsa":     true,
	"walkstore": true,
	"gen":       true,
}

// randConstructors are the math/rand and math/rand/v2 package-level
// functions that build local sources rather than touching global state.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewZipf": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"time.%s in deterministic package %s; wall-clock reads break fixed-seed reproducibility", fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() != nil {
			return // methods on *rand.Rand etc. are seeded locally
		}
		if randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global %s.%s in deterministic package %s; draw from a seeded local source instead", fn.Pkg().Name(), fn.Name(), pass.Pkg.Name())
	}
}

// calleeFunc resolves the called function/method object, or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// checkMapRange flags `range m` over a map whose body feeds an RNG draw, a
// WAL record, or an out-of-loop append.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if why := orderSensitiveCall(pass, n); why != "" {
				pass.Reportf(rng.Pos(),
					"range over map feeds %s at line %d; map iteration order is random per run — iterate a sorted key slice instead", why, pass.Fset.Position(n.Pos()).Line)
				return false
			}
		case *ast.AssignStmt:
			if why := outOfLoopAppend(pass, rng, n); why != "" {
				pass.Reportf(rng.Pos(),
					"range over map appends to %s declared outside the loop; map iteration order is random per run — iterate a sorted key slice or sort afterwards", why)
				return false
			}
		}
		return true
	})
}

// orderSensitiveCall classifies a call inside a map-range body as an RNG
// draw or a WAL/mutation-log record, returning a description or "".
func orderSensitiveCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && (obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2") {
				return "an RNG draw (" + obj.Name() + "." + fn.Name() + ")"
			}
			if obj.Name() == "MutationLog" || strings.HasPrefix(fn.Name(), "Log") {
				return "a WAL record (" + obj.Name() + "." + fn.Name() + ")"
			}
		}
	}
	return ""
}

// outOfLoopAppend reports an `x = append(x, …)` whose target is declared
// outside the range statement, returning the target's name or "".
func outOfLoopAppend(pass *Pass, rng *ast.RangeStmt, a *ast.AssignStmt) string {
	for i, rhs := range a.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			continue
		}
		if b, ok := pass.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		if i >= len(a.Lhs) {
			continue
		}
		id, ok := a.Lhs[i].(*ast.Ident)
		if !ok {
			// appends through selectors/indexes (s.batch = append…) are
			// always out-of-loop state.
			if sel, isSel := a.Lhs[i].(*ast.SelectorExpr); isSel {
				return exprString(sel)
			}
			continue
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			continue
		}
		if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
			return id.Name
		}
	}
	return ""
}
