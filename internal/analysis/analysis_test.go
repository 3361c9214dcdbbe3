package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"p4p/internal/leaktest"
)

// sharedLoader is reused across fixture tests so the source importer
// typechecks each stdlib dependency once.
var sharedLoader = sync.OnceValue(NewLoader)

func loadFixture(t *testing.T, name string) []*Pkg {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := sharedLoader().LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s is empty", name)
	}
	return pkgs
}

// wantMarkers collects "// want rule..." comments as "file:line rule"
// expectation keys.
func wantMarkers(pkgs []*Pkg) map[string]bool {
	want := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					for _, rule := range strings.Fields(rest) {
						want[fmt.Sprintf("%s:%d %s", filepath.Base(pos.Filename), pos.Line, rule)] = true
					}
				}
			}
		}
	}
	return want
}

// TestAnalyzersOnFixtures runs every analyzer — both the per-unit
// passes and the module-wide ones, with each fixture treated as its own
// mini-module — over each fixture package and requires the surviving
// findings to match the fixture's // want markers exactly: every bad
// pattern fires, every good pattern stays silent, in both directions.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name string
		// extra expectations that cannot be expressed as trailing
		// markers (findings reported at a comment's own position).
		extra []string
	}{
		{name: "lockheld"},
		{name: "lockheldip"},
		{name: "ctxflow"},
		{name: "ctxmain"},
		{name: "floatsentinel"},
		{name: "sleeptest"},
		{name: "suppress", extra: []string{
			"suppress.go:21 suppress",
			"suppress.go:27 suppress",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := loadFixture(t, tc.name)
			want := wantMarkers(pkgs)
			for _, e := range tc.extra {
				want[e] = true
			}
			got := map[string]bool{}
			for _, p := range pkgs {
				kept, _ := RunAll(p, Analyzers())
				for _, f := range kept {
					got[fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
				}
			}
			modKept, _ := RunModuleAll(NewModule(pkgs), Analyzers())
			for _, f := range modKept {
				got[fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("expected finding missing: %s", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected finding: %s", k)
				}
			}
		})
	}
}

// TestSuppressionCounting checks that reasoned suppressions are
// counted rather than silently dropped.
func TestSuppressionCounting(t *testing.T) {
	pkgs := loadFixture(t, "suppress")
	total := 0
	for _, p := range pkgs {
		_, suppressed := RunAll(p, Analyzers())
		total += suppressed
	}
	if total != 2 {
		t.Fatalf("suppressed = %d, want 2 (wrapped + trailing)", total)
	}
}

// TestFindingsSorted checks RunAll's output ordering is by file, line,
// then rule, so driver output is stable across runs.
func TestFindingsSorted(t *testing.T) {
	pkgs := loadFixture(t, "lockheld")
	for _, p := range pkgs {
		kept, _ := RunAll(p, Analyzers())
		sorted := sort.SliceIsSorted(kept, func(i, j int) bool {
			a, b := kept[i], kept[j]
			if a.Pos.Filename != b.Pos.Filename {
				return a.Pos.Filename < b.Pos.Filename
			}
			if a.Pos.Line != b.Pos.Line {
				return a.Pos.Line < b.Pos.Line
			}
			return a.Rule < b.Rule
		})
		if !sorted {
			t.Fatalf("findings not sorted: %v", kept)
		}
	}
}

// TestLoaderSplitsTestFiles checks the loader marks _test.go files and
// keeps in-package tests in the same unit.
func TestLoaderSplitsTestFiles(t *testing.T) {
	pkgs := loadFixture(t, "sleeptest")
	if len(pkgs) != 1 {
		t.Fatalf("got %d units, want 1 (in-package test rides along)", len(pkgs))
	}
	var test, prod int
	for _, f := range pkgs[0].Files {
		if pkgs[0].IsTestFile[f] {
			test++
		} else {
			prod++
		}
	}
	if test != 1 || prod != 1 {
		t.Fatalf("test/prod split = %d/%d, want 1/1", test, prod)
	}
}

// TestLoaderHonorsBuildConstraints checks //go:build evaluation: of a
// race / !race const-guard pair only the default-build half loads (the
// pair would redeclare the constant), and a never-satisfiable
// constraint excludes its file entirely.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	pkgs := loadFixture(t, "buildtags")
	if len(pkgs) != 1 {
		t.Fatalf("got %d units, want 1", len(pkgs))
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename))
	}
	sort.Strings(names)
	want := []string{"a.go", "guard_norace.go"}
	if len(names) != len(want) {
		t.Fatalf("loaded %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("loaded %v, want %v", names, want)
		}
	}
}

// TestLoadTreeParallelMatchesSerial loads a small module tree on one
// worker and on three: the same units come back in the same order
// (testdata skipped), and no worker outlives the call.
func TestLoadTreeParallelMatchesSerial(t *testing.T) {
	leaktest.Check(t)
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":               "module tree\n",
		"a/a.go":               "package a\n",
		"b/b.go":               "package b\n",
		"b/c/c.go":             "package c\n",
		"d/d.go":               "package d\n",
		"d/testdata/x/x.go":    "package x\n",
		"e/e.go":               "package e\n",
		"e/e_external_test.go": "package e_test\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	units := func(workers int) []string {
		pkgs, err := NewLoader().LoadTreeParallel(root, root, workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		var out []string
		for _, p := range pkgs {
			out = append(out, p.ImportPath)
		}
		return out
	}
	serial, parallel := units(1), units(3)
	want := []string{"tree/a", "tree/b", "tree/b/c", "tree/d", "tree/e", "tree/e_test"}
	if !slices.Equal(serial, want) || !slices.Equal(parallel, want) {
		t.Errorf("units: serial %v, parallel %v; want %v", serial, parallel, want)
	}
}
