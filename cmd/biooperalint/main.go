// Command biooperalint runs the project's invariant analyzers (see
// internal/lint) over every package in the module:
//
//	go run ./cmd/biooperalint ./...
//
// Package patterns are accepted for familiarity but the tool always
// checks the whole module — the invariants are global (the lock-order and
// goroutine-lifecycle analyzers literally need every package), and partial
// runs would let a stale //bioopera:allow in an unchecked package survive.
// Exit status is 1 if any diagnostic remains after suppression.
//
// Output formats:
//
//	(default)  file:line:col: message [analyzer] — or, when the tool sees it
//	           runs under GitHub Actions (GITHUB_ACTIONS=true), workflow
//	           commands (::error file=...), which the Actions runner turns
//	           into PR-diff annotations
//	-json      a JSON array of {analyzer, file, line, column, message}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bioopera/internal/lint"
)

// finding is the machine-readable form of one diagnostic.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fail(err)
	}
	ld, err := lint.NewLoader(root)
	if err != nil {
		fail(err)
	}
	t0 := time.Now()
	pkgs, err := ld.LoadModule()
	if err != nil {
		fail(err)
	}
	loaded := time.Since(t0)
	diags := lint.Run(pkgs)
	fmt.Fprintf(os.Stderr, "biooperalint: %d packages, load %s, analyze %s\n",
		len(pkgs), loaded.Round(time.Millisecond), (time.Since(t0) - loaded).Round(time.Millisecond))

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, finding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fail(err)
		}
	case os.Getenv("GITHUB_ACTIONS") == "true":
		for _, f := range findings {
			// %0A is the workflow-command newline escape; the message body
			// must also escape % to survive the runner's decoding.
			msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(
				fmt.Sprintf("%s [%s]", f.Message, f.Analyzer))
			fmt.Printf("::error file=%s,line=%d,col=%d,title=biooperalint %s::%s\n",
				f.File, f.Line, f.Column, f.Analyzer, msg)
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "biooperalint: %d issue(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "biooperalint:", err)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
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
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
