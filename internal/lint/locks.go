package lint

// Lock-site classification for the lockorder analyzer. Classification is by *shape* — struct type name, field name,
// and mutex type — rather than by import path, so the analysistest fixtures
// can reproduce each idiom with small local packages and so the rules keep
// working if packages move. The shapes are exactly the named lock sets of
// docs/DESIGN.md#lock-order:
//
//	level 1  maintainer endpoint stripes   stripes.MutexSet fields named endMu
//	level 2  maintainer SegmentID stripes  stripes.MutexSet fields named segMu
//	         (and any other MutexSet — every remaining set in the tree is a
//	         SegmentID set handed around as a parameter)
//	level 3  walk-store segment lock       sync.RWMutex field segMu
//	level 4  walk-store counter stripes    field mu of struct counterStripe
//	level 5  graph shard locks             field mu of struct shard
//	known    the seed-a-new-node claim     any field knownMu — held alone
//
// Acquisitions must only ever go downward through the levels; knownMu is
// exclusive against every tracked lock in both directions.

import (
	"go/ast"
	"go/types"
)

type lockClass int

const (
	classNone lockClass = iota
	classEndpoint
	classSegStripe
	classStoreSeg
	classCounter
	classShard
	classKnown
)

// level returns the §6 rank, or 0 for unranked classes.
func (c lockClass) level() int {
	switch c {
	case classEndpoint:
		return 1
	case classSegStripe:
		return 2
	case classStoreSeg:
		return 3
	case classCounter:
		return 4
	case classShard:
		return 5
	}
	return 0
}

func (c lockClass) String() string {
	switch c {
	case classEndpoint:
		return "maintainer endpoint stripes (level 1)"
	case classSegStripe:
		return "maintainer SegmentID stripes (level 2)"
	case classStoreSeg:
		return "walk-store segment lock (level 3)"
	case classCounter:
		return "walk-store counter stripes (level 4)"
	case classShard:
		return "graph shard lock (level 5)"
	case classKnown:
		return "knownMu (exclusive)"
	}
	return "unranked lock"
}

// isMutexSetType reports whether t is (a pointer to) the stripes.MutexSet
// striping primitive: a named type MutexSet declared in a package named
// stripes.
func isMutexSetType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "MutexSet" && obj.Pkg() != nil && obj.Pkg().Name() == "stripes"
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (rw true for
// the latter).
func isSyncMutex(t types.Type) (ok, rw bool) {
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return true, false
	case "RWMutex":
		return true, true
	}
	return false, false
}

// fieldOwnerName returns the name of the named struct type that declares
// field v, or "".
func fieldOwnerName(pkg *types.Package, v *types.Var) string {
	if !v.IsField() {
		return ""
	}
	for _, scopeName := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(scopeName).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}

// classifyMutexSetField ranks a stripes.MutexSet by the field name it is
// stored under. Non-field MutexSet expressions (parameters, locals) default
// to the SegmentID level: every set handed around the tree by value is a
// SegmentID set.
func classifyMutexSetField(name string) lockClass {
	if name == "endMu" {
		return classEndpoint
	}
	return classSegStripe
}

// classifySyncMutex ranks a plain sync mutex selector expression
// (e.g. s.segMu, st.mu, sh.mu, m.knownMu) per the shape table above.
func classifySyncMutex(pass *Pass, sel *ast.SelectorExpr) lockClass {
	obj, ok := pass.Info.Uses[sel.Sel]
	if !ok {
		return classNone
	}
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return classNone
	}
	mok, rw := isSyncMutex(v.Type())
	if !mok {
		return classNone
	}
	switch v.Name() {
	case "knownMu":
		return classKnown
	case "segMu":
		if rw {
			return classStoreSeg
		}
	case "mu":
		switch fieldOwnerName(pass.Pkg, v) {
		case "counterStripe":
			return classCounter
		case "shard":
			return classShard
		}
	}
	return classNone
}

// exprString renders a lock expression compactly for set identity and
// messages (m.endMu, s.stripes[i].mu, ...). It intentionally collapses
// distinct index expressions: two raw acquisitions through the same set
// expression are exactly the pattern lockorder exists to flag.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.UnaryExpr:
		return exprString(e.X)
	}
	return "lock"
}

// funcBodies yields every function body in the file in source order —
// declarations and function literals — each as an independent lock scope (a
// goroutine body must stand on its own).
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}
