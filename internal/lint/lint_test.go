package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot locates the module root (two levels above internal/lint).
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("expected module root at %s: %v", root, err)
	}
	return root
}

// wantDiag is one `// want "regex"` annotation from a fixture file.
type wantDiag struct {
	file string // module-root-relative, as Diagnostic positions render
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantMarkRE = regexp.MustCompile(`// want "([^"]*)"`)

// parseWants collects the annotations of every .go file in dir.
func parseWants(t *testing.T, root, dir string) []*wantDiag {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantDiag
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		display := filepath.ToSlash(rel)
		for i, line := range strings.Split(string(src), "\n") {
			m := wantMarkRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wants = append(wants, &wantDiag{
				file: display,
				line: i + 1,
				re:   regexp.MustCompile(m[1]),
			})
		}
	}
	return wants
}

// loadFixture type-checks one fixture directory as analysis units.
func loadFixture(t *testing.T, ld *loader, dir string) []*Pass {
	t.Helper()
	passes, err := ld.units(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(passes) == 0 {
		t.Fatalf("no Go packages in %s", dir)
	}
	return passes
}

// TestFixtures drives each analyzer over its testdata corpus and
// matches the diagnostics against the `// want` annotations, both
// directions: every annotation must be reported, every report must be
// annotated. It also proves the bad fixtures pass when the analyzer is
// absent — the findings come from the analyzer, not the framework.
func TestFixtures(t *testing.T) {
	root := repoRoot(t)
	ld, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		analyzer *Analyzer
		dirs     []string
	}{
		{SpinLoop, []string{"spinloop"}},
		{AtomicField, []string{"atomicfield"}},
		{Sentinel, []string{"sentinel"}},
		{MetricName, []string{"metricname"}},
		{TagPair, []string{"tagpair/bad", "tagpair/good"}},
	}
	for _, tc := range cases {
		for _, d := range tc.dirs {
			name := strings.ReplaceAll(d, "/", "_")
			if name == tc.analyzer.Name {
				name = tc.analyzer.Name
			} else if !strings.HasPrefix(name, tc.analyzer.Name) {
				name = tc.analyzer.Name + "_" + name
			}
			t.Run(name, func(t *testing.T) {
				dir := filepath.Join(root, "internal/lint/testdata", d)
				passes := loadFixture(t, ld, dir)
				wants := parseWants(t, root, dir)

				// Without the analyzer the bad fixtures are silent.
				for _, diag := range runAnalyzers(passes, nil) {
					if strings.Contains(diag.Pos.Filename, "bad") {
						t.Errorf("diagnostic with no analyzers loaded: %s", diag)
					}
				}

				diags := runAnalyzers(passes, []*Analyzer{tc.analyzer})
				for _, diag := range diags {
					matched := false
					for _, w := range wants {
						if !w.hit && w.file == diag.Pos.Filename && w.line == diag.Pos.Line && w.re.MatchString(diag.Message) {
							w.hit = true
							matched = true
							break
						}
					}
					if !matched {
						t.Errorf("unexpected diagnostic: %s", diag)
					}
				}
				for _, w := range wants {
					if !w.hit {
						t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
					}
				}
			})
		}
	}
}

// TestIgnoreDirectives covers the waiver mechanism's own diagnostics:
// a bare //lint:ignore (no reason) is malformed and suppresses
// nothing, and a well-formed directive that waives nothing is stale.
// (The happy path — a waiver suppressing a real finding — is in
// testdata/spinloop/good.go.)
func TestIgnoreDirectives(t *testing.T) {
	root := repoRoot(t)
	ld, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	passes := loadFixture(t, ld, filepath.Join(root, "internal/lint/testdata/ignore"))
	diags := runAnalyzers(passes, []*Analyzer{SpinLoop})

	expect := map[string]string{
		"malformed": "malformed //lint:ignore",
		"spin":      "spin loop polls an atomic",
		"stale":     "waives nothing on this or the next line",
	}
	for label, substr := range expect {
		found := 0
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				found++
			}
		}
		if found != 1 {
			t.Errorf("%s: want exactly 1 diagnostic containing %q, got %d in %v", label, substr, found, diags)
		}
	}
	if len(diags) != len(expect) {
		t.Errorf("want %d diagnostics total, got %d: %v", len(expect), len(diags), diags)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "lint:ignore") && d.Analyzer != "countlint" {
			t.Errorf("directive diagnostics carry the analyzer name countlint, got %q", d.Analyzer)
		}
	}
}

// TestRepoLintClean runs the full analyzer set over the real tree: the
// repository must lint clean at all times (`make lint` is part of
// `make check`). Skipped under -short — it type-checks the module and
// its stdlib imports from source.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint run; skipped in -short")
	}
	root := repoRoot(t)
	diags, err := Run(root, []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("lint run failed to load the tree: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repository not lint-clean: %s", d)
	}
}

// TestAnalyzersHaveDocs keeps `countlint -list` useful: every analyzer
// carries a name and a one-line doc.
func TestAnalyzersHaveDocs(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v lacks a name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.File == nil && a.Package == nil && a.Repo == nil {
			t.Errorf("analyzer %s has no hooks", a.Name)
		}
	}
}
