package lint

// An analysistest-style fixture harness on the standard library. Fixture
// packages live under testdata/src/<importpath>; fixture-local imports
// (e.g. the mini "stripes" package) resolve there, everything else
// type-checks from $GOROOT/src via the source importer. Expected findings
// are comments carrying `want "<regex>"` markers on the diagnostic's line;
// every diagnostic must match a want and every want must be matched.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

type fixturePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	dir   string
}

type fixtureLoader struct {
	t    *testing.T
	fset *token.FileSet
	root string
	pkgs map[string]*fixturePkg
	std  types.Importer
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &fixtureLoader{
		t:    t,
		fset: fset,
		root: root,
		pkgs: make(map[string]*fixturePkg),
		std:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the fixture tree with a stdlib
// fallback, so fixtures can import both "stripes" and "sync".
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if fi, err := os.Stat(filepath.Join(l.root, path)); err == nil && fi.IsDir() {
		fp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.pkgs[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := &types.Config{Importer: l}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{pkg: pkg, info: info, files: files, dir: dir}
	l.pkgs[path] = fp
	return fp, nil
}

// want is one expected-diagnostic marker.
type want struct {
	re      *regexp.Regexp
	line    int
	file    string
	matched bool
}

var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants extracts `want "regex"` markers. The marker may sit anywhere
// in a comment (doc comments double as fixture lines for docanchor); each
// quoted string after the marker is one expected diagnostic on that line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, `want "`)
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range quotedRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					raw, err := strconv.Unquote(`"` + m[1] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &want{re: re, line: pos.Line, file: pos.Filename})
				}
			}
		}
	}
	return wants
}

// runFixture analyzes one fixture package with the given analyzers and
// checks the diagnostics against its want markers.
func runFixture(t *testing.T, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	l := newFixtureLoader(t)
	fp, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	diags, err := RunPackage(l.fset, fp.files, fp.pkg, fp.info, fp.dir, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgPath, err)
	}
	wants := collectWants(t, l.fset, fp.files)
	t.Logf("%s: %d diagnostics, %d wants", pkgPath, len(diags), len(wants))
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestLockOrderFixture(t *testing.T)   { runFixture(t, "lockorderfix", LockOrder) }
func TestDeterminismFixture(t *testing.T) { runFixture(t, "determinism", Determinism) }
func TestDeterminismRepairFixture(t *testing.T) {
	runFixture(t, "repair", Determinism)
}
func TestAllowFixture(t *testing.T) { runFixture(t, "allowfix", All()...) }

func TestDocAnchorFixtures(t *testing.T) {
	for _, pkg := range []string{
		"internal/docgood",
		"internal/docbad",
		"internal/docnone",
		"internal/docmissing",
	} {
		t.Run(filepath.Base(pkg), func(t *testing.T) { runFixture(t, pkg, DocAnchor) })
	}
}
