package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// fixtures maps each analyzer to its known-bad testdata package.
var fixtures = map[string]string{
	"lifecycle":      "lifecycle",
	"ddf-once":       "ddfonce",
	"hotpath-alloc":  "hotpath",
	"lock-order":     "lockorder",
	"nonblocking":    "nonblocking",
	"tag-space":      "tagspace",
	"goroutine-leak": "goroutineleak",

	"buffer-reuse":          "bufferreuse",
	"collective-divergence": "collectivediv",
}

// TestFixtures runs each analyzer alone over its fixture package and
// compares the diagnostics (with basename-relative positions) against
// the package's expect.txt golden. Regenerate with: go test -run
// Fixtures ./internal/lint -update
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		dir, ok := fixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture package", a.Name)
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			root := filepath.Join("testdata", "src", dir)
			pkg, err := LoadPackageDir(root)
			if err != nil {
				t.Fatalf("load %s: %v", root, err)
			}
			for _, e := range pkg.Errors {
				t.Errorf("fixture %s has type errors: %v", dir, e)
			}
			findings := RunAll([]*Package{pkg}, []*Analyzer{a})
			var lines []string
			for _, f := range findings {
				f.Pos.Filename = filepath.Base(f.Pos.Filename)
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			golden := filepath.Join(root, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantB, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if want := string(wantB); got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			// Cross-check the findings against the // want: markers in the
			// fixture source, so the two cannot silently drift apart.
			mismatches, err := wantMismatches(root, findings)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mismatches {
				t.Error(m)
			}
		})
	}
}

// wantMismatches compares findings against the `// want:` markers in
// dir's .go files and returns a human-readable description of every
// divergence: a marked line with no finding, or a finding on an
// unmarked line. Matching is positional (file basename + line), not
// textual — the marker hint is for the human reader.
func wantMismatches(dir string, findings []Finding) ([]string, error) {
	wanted := map[string]int{} // "file.go:NN" → marker count
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "// want:") {
				wanted[fmt.Sprintf("%s:%d", e.Name(), i+1)]++
			}
		}
	}
	reported := map[string]int{}
	for _, f := range findings {
		reported[fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)]++
	}
	var out []string
	for pos := range wanted {
		if reported[pos] == 0 {
			out = append(out, fmt.Sprintf("%s: marked // want: but no finding reported", pos))
		}
	}
	for pos := range reported {
		if wanted[pos] == 0 {
			out = append(out, fmt.Sprintf("%s: finding reported but no // want: marker", pos))
		}
	}
	sort.Strings(out)
	return out, nil
}

// TestLiveTreeClean loads the real module and asserts the full analyzer
// suite reports nothing and every //hclint:allow still masks a finding:
// `make lint` must stay green.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
	}
	for _, f := range RunAll(pkgs, All()) {
		t.Errorf("live tree finding: %s", f)
	}
	for _, f := range AuditAllows(pkgs) {
		t.Errorf("live tree stale waiver: %s", f)
	}
}

// TestAllowAuditAndSuppressions covers the suppression bookkeeping: a
// hit //hclint:allow masks its finding and is not stale, an unhit one
// is flagged by AuditAllows, and a waiver whose analyzer leaves the
// suite turns stale with it.
func TestAllowAuditAndSuppressions(t *testing.T) {
	pkg, err := LoadPackageDir(filepath.Join("testdata", "src", "allowaudit"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.Errors {
		t.Fatalf("fixture type error: %v", e)
	}
	pkgs := []*Package{pkg}
	if fs := RunAll(pkgs, All()); len(fs) != 0 {
		t.Errorf("allow did not suppress: %v", fs)
	}
	stale := AuditAllows(pkgs)
	if len(stale) != 1 {
		t.Fatalf("AuditAllows = %d, want exactly the stale comment: %v", len(stale), stale)
	}
	if stale[0].Check != "allow-audit" || !strings.Contains(stale[0].Msg, "stale") ||
		!strings.Contains(stale[0].Msg, "this line produces no finding") {
		t.Errorf("stale finding = %v", stale[0])
	}

	var rest []*Analyzer
	for _, a := range All() {
		if a != HotpathAlloc {
			rest = append(rest, a)
		}
	}
	RunAll(pkgs, rest)
	if stale := AuditAllows(pkgs); len(stale) != 2 {
		t.Fatalf("without hotpath-alloc, AuditAllows = %d, want both comments: %v", len(stale), stale)
	}
}
