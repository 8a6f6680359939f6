// Command hclint is the HCMPI static analyzer driver: it loads every
// package of the module (including test files) with the standard
// library's go/* packages only, runs the internal/lint analyzer suite,
// prints findings as "file:line: [check] message", and exits non-zero if
// anything was found.
//
// Usage:
//
//	hclint [-tags tag1,tag2] [-stats] [-audit-allow] [dir]
//	hclint -list
//
// dir (default ".") may be the module root, any directory inside the
// module, or a "./..." pattern — the whole module is always linted.
// -stats prints per-analyzer finding counts and wall time to stderr.
// -audit-allow fails the run when an //hclint:allow comment suppressed
// nothing — stale waivers are deleted, not accumulated.
// -list prints the nine analyzers and exits.
// Exit codes: 0 clean, 1 findings (or stale allows), 2 load or usage
// error.
//
// The analyzers, the invariants they defend and the record each is
// kept on are catalogued in DESIGN.md §10. Run the debug-assertion
// complement with `make tier1-debug`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hcmpi/internal/lint"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags (e.g. hcmpi_debug)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	stats := flag.Bool("stats", false, "print per-analyzer finding counts and timings to stderr")
	auditAllow := flag.Bool("audit-allow", false, "fail when an //hclint:allow comment suppresses nothing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hclint [-tags t1,t2] [-stats] [-audit-allow] [dir]\n"+
			"       hclint -list\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = strings.TrimSuffix(flag.Arg(0), "...")
		dir = strings.TrimSuffix(dir, string(filepath.Separator))
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	}

	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}

	root, err := findModuleRoot(dir)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root, tagList...)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			fatal(fmt.Errorf("type error in %s: %v", p.Path, e))
		}
	}

	res := lint.RunAllResult(pkgs, lint.All())
	cwd, _ := os.Getwd()
	for _, f := range res.Findings {
		printFinding(cwd, f)
	}
	if *stats {
		printStats(res.Stats)
	}

	var stale []lint.Finding
	if *auditAllow {
		stale = lint.AuditAllows(pkgs)
		for _, f := range stale {
			printFinding(cwd, f)
		}
	}

	if n := len(res.Findings) + len(stale); n > 0 {
		fmt.Fprintf(os.Stderr, "hclint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// printFinding prints f with its filename relative to cwd when the file
// lies under it.
func printFinding(cwd string, f lint.Finding) {
	name := f.Pos.Filename
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	fmt.Printf("%s:%d: [%s] %s\n", name, f.Pos.Line, f.Check, f.Msg)
}

// printStats renders the per-analyzer accounting table. The first
// module-wide analyzer's time includes building the shared call graph
// and blocking facts; the rest hit the cache.
func printStats(stats []lint.Stat) {
	for _, s := range stats {
		fmt.Fprintf(os.Stderr, "%-15s %3d finding(s) %12s\n",
			s.Name, s.Findings, s.Elapsed.Round(time.Microsecond))
	}
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("hclint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hclint:", err)
	os.Exit(2)
}
