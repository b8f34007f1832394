package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestAllowMalformed(t *testing.T) {
	fset, files := parseSrc(t, `package p

//lint:allow
var a int

//lint:allow determinism
var b int

//lint:allow determinism collect-then-sort loop
var c int
`)
	allows, diags := collectAllows(fset, files, All())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "names no analyzer") {
		t.Errorf("bare annotation: got %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "has no reason") {
		t.Errorf("reasonless annotation: got %q", diags[1].Message)
	}
	// Only the well-formed annotation registers, covering its line and the
	// line below.
	if len(allows) != 2 {
		t.Fatalf("got %d suppression keys, want 2: %v", len(allows), allows)
	}
	for k := range allows {
		if k.analyzer != "determinism" {
			t.Errorf("suppression for %q, want determinism", k.analyzer)
		}
	}
}

func TestAllowDiagnosticsUnsuppressable(t *testing.T) {
	// An allow annotation cannot silence the diagnostic about itself being
	// malformed: filterAllowed runs before allow diagnostics are appended.
	fset, files := parseSrc(t, `package p

//lint:allow lockorder muting the line below
//lint:allow nosuchanalyzer whatever
var x int
`)
	_, diags := collectAllows(fset, files, All())
	filtered := filterAllowed(diags, map[allowKey]bool{})
	if len(filtered) != 1 || !strings.Contains(filtered[0].Message, "unknown analyzer") {
		t.Fatalf("got %v, want one unknown-analyzer diagnostic", filtered)
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"12. Static analysis":      "12-static-analysis",
		"8. Durability & recovery": "8-durability--recovery",
		"Lock order":               "lock-order",
		"  Spaces  ":               "spaces",
		"CamelCase_and_under":      "camelcaseandunder",
	}
	for in, want := range cases {
		if got := Slugify(in); got != want {
			t.Errorf("Slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeadingSlugsRealDesign(t *testing.T) {
	// The production DESIGN.md must expose the anchors the tree's doc.go
	// files rely on, including §12, which documents this suite.
	slugs, err := headingSlugs(filepath.Join("..", "..", "docs", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"6-concurrency-model",
		"8-durability--recovery",
		"12-static-analysis",
		"lock-order",
	} {
		if !slugs[want] {
			t.Errorf("docs/DESIGN.md lacks anchor #%s", want)
		}
	}
}

func TestHeadingSlugsDuplicatesAndFences(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "D.md")
	md := "# Top\n\n### Notes\n\n### Notes\n\n```\n## fenced heading\n```\n"
	if err := os.WriteFile(path, []byte(md), 0o666); err != nil {
		t.Fatal(err)
	}
	slugs, err := headingSlugs(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"top", "notes", "notes-1"} {
		if !slugs[want] {
			t.Errorf("missing slug %q in %v", want, slugs)
		}
	}
	if slugs["fenced-heading"] {
		t.Error("fenced heading leaked into the slug set")
	}
}
