// Package lint is the repository's dependency-free static-analysis
// framework: a small analyzer interface over the stdlib go/ast +
// go/parser + go/types stack (no x/tools, per the zero-dependency
// rule), a module-aware package loader, and the five project-specific
// analyzers that mechanize invariants previously enforced only by
// reviewer discipline — the PR 3 no-unyielded-spin-loops audit, the
// atomics-only access convention on hot-path fields, the paired
// build-tag fallbacks for the batched-syscall files, the single
// xport.ErrClosed sentinel, and the Prometheus metric naming +
// OPERATIONS.md healthy-range catalogue.
//
// cmd/countlint is the command-line driver (`make lint` runs it over
// ./...). A diagnostic can be waived in place with a
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the flagged line or the line directly above it; the
// reason is mandatory (a bare ignore is itself a diagnostic), and the
// policy for when a waiver is acceptable lives in OPERATIONS.md.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one positioned finding. The driver renders it as
// "file:line:col: analyzer: message" — stable and sorted, so CI diffs
// are reviewable and the tool is scriptable.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Hooks are optional: File runs once per
// type-checked file, Package once per package unit after the file
// hooks, Repo once per run with every package unit in view (for
// checks that cross packages, like the metric catalogue against
// ctlplanedoc's healthy-range map).
type Analyzer struct {
	Name string
	Doc  string // one line, shown by `countlint -list`

	File    func(*Pass, *ast.File)
	Package func(*Pass)
	Repo    func(*RepoPass)
}

// Pass is one package unit under analysis: the type-checked syntax of
// the default build (in-package _test files included — test code must
// hold the invariants too), plus the raw syntax of every .go file in
// the directory regardless of build constraints, which is what the
// tagpair analyzer needs to see excluded variants.
type Pass struct {
	Fset *token.FileSet
	Path string // import path of the unit
	Dir  string // directory the unit was loaded from

	Files []*ast.File // type-checked syntax, default build + in-package tests
	All   []*SrcFile  // every .go file in Dir, syntax only, constraints recorded

	Pkg  *types.Package
	Info *types.Info

	analyzer string
	sink     *sink
}

// SrcFile is one source file as the loader saw it, before build-tag
// filtering.
type SrcFile struct {
	Name       string // base name
	Path       string // full path
	Syntax     *ast.File
	Constraint string // normalized //go:build expression, "" if unconstrained
	Test       bool   // *_test.go
	InBuild    bool   // included in the default-build unit
}

// Report records a diagnostic for the running analyzer at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.sink.add(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves a token.Pos against the unit's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// RepoPass is the whole-run view handed to Repo hooks: every loaded
// package unit.
type RepoPass struct {
	Packages []*Pass

	analyzer string
	sink     *sink
}

// ReportPos records a diagnostic at a token.Pos resolved against a
// package unit's file set.
func (rp *RepoPass) ReportPos(p *Pass, pos token.Pos, format string, args ...any) {
	rp.sink.add(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: rp.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// sink collects diagnostics from all hooks of a run.
type sink struct {
	diags []Diagnostic
}

func (s *sink) add(d Diagnostic) { s.diags = append(s.diags, d) }

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// Run loads every package under the given directories (absolute or
// root-relative; "..." suffix walks recursively, skipping testdata),
// runs the analyzers, applies //lint:ignore suppression, and returns
// the surviving diagnostics sorted by position. A nil error with a
// non-empty slice is the "lint found something" outcome; an error
// means the tree could not be loaded (parse or type failure).
func Run(root string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	ld, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	var passes []*Pass
	for _, dir := range dirs {
		units, err := ld.units(dir)
		if err != nil {
			return nil, err
		}
		passes = append(passes, units...)
	}
	return runAnalyzers(passes, analyzers), nil
}

// runAnalyzers executes the hooks over already-loaded units. Split out
// so tests can drive analyzers against fixture units directly.
func runAnalyzers(passes []*Pass, analyzers []*Analyzer) []Diagnostic {
	s := &sink{}
	ignores := collectIgnores(passes, s)

	for _, p := range passes {
		p.sink = s
		for _, a := range analyzers {
			p.analyzer = a.Name
			if a.File != nil {
				for _, f := range p.Files {
					a.File(p, f)
				}
			}
			if a.Package != nil {
				a.Package(p)
			}
		}
	}
	rp := &RepoPass{Packages: passes, sink: s}
	for _, a := range analyzers {
		rp.analyzer = a.Name
		if a.Repo != nil {
			a.Repo(rp)
		}
	}

	kept := suppress(s.diags, ignores)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// collectIgnores scans every file's comments for //lint:ignore
// directives. Malformed directives (no analyzer name, or no reason)
// are diagnostics themselves: a waiver without a reason is exactly the
// undocumented exception the tool exists to prevent.
func collectIgnores(passes []*Pass, s *sink) []*ignoreDirective {
	var out []*ignoreDirective
	seen := make(map[string]bool) // filename: files can appear in two units (pkg + xtest)
	for _, p := range passes {
		for _, sf := range p.All {
			if sf.Syntax == nil || seen[sf.Path] {
				continue
			}
			seen[sf.Path] = true
			for _, cg := range sf.Syntax.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					pos := p.Fset.Position(c.Pos())
					if len(fields) < 2 {
						s.add(Diagnostic{Pos: pos, Analyzer: "countlint",
							Message: "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\" (the reason is mandatory)"})
						continue
					}
					out = append(out, &ignoreDirective{
						pos:      pos,
						analyzer: fields[0],
						reason:   strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	return out
}

// suppress drops diagnostics waived by an ignore directive on the same
// line or the line directly above, and reports directives that waived
// nothing (a stale ignore hides future regressions).
func suppress(diags []Diagnostic, ignores []*ignoreDirective) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		waived := false
		for _, ig := range ignores {
			if ig.analyzer != d.Analyzer || ig.pos.Filename != d.Pos.Filename {
				continue
			}
			if ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1 {
				ig.used = true
				waived = true
			}
		}
		if !waived {
			kept = append(kept, d)
		}
	}
	for _, ig := range ignores {
		if !ig.used {
			kept = append(kept, Diagnostic{Pos: ig.pos, Analyzer: "countlint",
				Message: fmt.Sprintf("//lint:ignore %s waives nothing on this or the next line; remove it", ig.analyzer)})
		}
	}
	return kept
}

// Analyzers returns the full registered set, the order `countlint
// -list` prints.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SpinLoop,
		AtomicField,
		TagPair,
		Sentinel,
		MetricName,
	}
}
