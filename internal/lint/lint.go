// Package lint is the walklint analyzer suite: machine checks for the
// invariants the compiler cannot see — the DESIGN.md §6 lock order, the
// fixed-seed determinism contract, and the doc.go → DESIGN.md anchor
// discipline. See docs/DESIGN.md#12-static-analysis.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// shapes (Analyzer, Pass, Diagnostic) so the suite can migrate onto the real
// driver wholesale if the dependency ever lands; until then the package is
// stdlib-only and cmd/walklint speaks `go vet -vettool`'s unit protocol
// directly (see unit.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Version names the analyzer-suite revision. It feeds the vettool's -V
// fingerprint and benchwalk's lint_clean provenance, so bump it whenever an
// analyzer's findings can change.
const Version = "walklint-2.0.0"

// An Analyzer is one named invariant check. The shape matches
// x/tools/go/analysis.Analyzer minus facts and requires.
type Analyzer struct {
	Name string // short lowercase identifier, used in //lint:allow
	Doc  string // one-line description of the invariant it encodes
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dir is the package's directory on disk — docanchor resolves
	// docs/DESIGN.md by walking up from here.
	Dir string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, carried with its resolved file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full walklint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		Determinism,
		DocAnchor,
	}
}

// RunPackage runs the analyzers over one type-checked package, applies the
// //lint:allow annotation filter, and returns the surviving diagnostics
// sorted by position. Malformed allow annotations are themselves
// diagnostics (analyzer "allow") and cannot be suppressed.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Dir:      dir,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	allows, allowDiags := collectAllows(fset, files, analyzers)
	diags = filterAllowed(diags, allows)
	diags = append(diags, allowDiags...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
