// Command countlint is the repository's static-analysis gate: five
// dependency-free analyzers (stdlib go/ast + go/types, no x/tools)
// that mechanize the invariants the tree previously kept by reviewer
// discipline — no unyielded spin loops, atomics-only access to fields
// touched by sync/atomic, paired build-tag fallbacks, the single
// xport.ErrClosed sentinel compared only with errors.Is, and
// Prometheus metric naming synced with ctlplanedoc's healthy-range
// catalogue.
//
// Usage:
//
//	countlint [-list] [-root dir] [packages]
//
// Packages default to ./... under the module root. Output is one
// finding per line in the stable, sorted form
//
//	file:line:col: analyzer: message
//
// so CI diffs are reviewable and the tool is scriptable. Exit status:
// 0 clean, 1 findings, 2 the tree could not be loaded. A finding can
// be waived in place with `//lint:ignore <analyzer> <reason>`; the
// policy for acceptable waivers is in OPERATIONS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "print analyzer names and one-line docs, then exit")
		root = flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "countlint: %v\n", err)
			os.Exit(2)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := lint.Run(dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "countlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		// Positions are already module-root-relative: stable output no
		// matter where the tool runs.
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "countlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the enclosing go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s; pass -root", dir)
		}
		dir = parent
	}
}
