// Command pcflint runs the repo's project-specific static analyzers
// (internal/analysis) over the module: tolerance-aware float
// comparisons, context checks in unbounded solve loops, never-dropped
// solver errors, no panics in library code, immutability of published
// plans, and deadline-carrying HTTP. It also reports suppression
// directives that are malformed, name no analyzer, or suppress
// nothing. It is part of the contributor gate (scripts/check.sh runs
// it between go vet and go build).
//
// Usage:
//
//	pcflint [-json] [-tests] [-analyzers a,b,...] [packages...]
//
// Package patterns are ./... (default), ./dir/... or plain
// directories. -json prints the diagnostics as one JSON array. Exit
// status: 0 clean, 1 diagnostics reported, 2 the module failed to load
// or type-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pcf/internal/analysis"
)

func main() {
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "pcflint: "+format+"\n", args...) }

	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	withTests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	root, modulePath, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := &analysis.Loader{Dir: root, ModulePath: modulePath, IncludeTests: *withTests}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers)
	if diags == nil {
		// A clean run must emit [] in -json mode, not null.
		diags = []analysis.Diagnostic{}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			log("%v", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			log("%d diagnostic(s) in %d package(s)", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}
