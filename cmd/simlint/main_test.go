package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Split(string(data), "\n"), nil
}

// TestMapRangeFixtures runs the linter over the map-range fixture file
// and checks it fires on exactly the BAD-marked lines and nowhere
// else. The fixture marks each intended violation with a trailing
// "// BAD" on the range statement.
func TestMapRangeFixtures(t *testing.T) {
	path := filepath.Join("testdata", "maprange.go")
	findings, err := lintFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{} // line of each `// BAD` range statement
	src, err := readLines(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range src {
		if strings.Contains(line, "// BAD") {
			want[i+1] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no BAD markers; the test is vacuous")
	}
	// Each finding sits inside the body of a BAD-marked loop: attribute
	// it to the nearest BAD line above it.
	got := map[int]int{}
	for _, f := range findings {
		marked := 0
		for line := range want {
			if line <= f.pos.Line && line > marked {
				marked = line
			}
		}
		if marked == 0 {
			t.Errorf("unexpected finding outside any BAD block: %s: %s", f.pos, f.msg)
			continue
		}
		got[marked]++
	}
	for line := range want {
		if got[line] != 1 {
			t.Errorf("BAD marker at line %d produced %d finding(s), want exactly 1", line, got[line])
		}
	}
	if len(findings) != len(want) {
		for _, f := range findings {
			t.Logf("finding: %s: %s", f.pos, f.msg)
		}
		t.Fatalf("%d findings for %d BAD markers", len(findings), len(want))
	}
}

// TestCrossFilePackageAnalysis proves the package-wide declaration
// resolution: b.go's ranges use a struct map field and package-level
// maps declared only in a.go, so linting b.go alone finds nothing,
// while linting the pair as a package fires on exactly the BAD-marked
// lines (and honours the local shadow of the global's name).
func TestCrossFilePackageAnalysis(t *testing.T) {
	a := filepath.Join("testdata", "xfile", "a.go")
	b := filepath.Join("testdata", "xfile", "b.go")

	alone, err := lintFile(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range alone {
		t.Errorf("single-file lint of b.go should be blind to a.go's declarations, got: %s: %s", f.pos, f.msg)
	}

	findings, err := lintFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	src, err := readLines(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range src {
		if strings.Contains(line, "// BAD") {
			want[i+1] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no BAD markers; the test is vacuous")
	}
	got := map[int]int{}
	for _, f := range findings {
		marked := 0
		for line := range want {
			if line <= f.pos.Line && line > marked {
				marked = line
			}
		}
		if marked == 0 {
			t.Errorf("unexpected finding outside any BAD block: %s: %s", f.pos, f.msg)
			continue
		}
		got[marked]++
	}
	for line := range want {
		if got[line] != 1 {
			t.Errorf("BAD marker at line %d produced %d finding(s), want exactly 1", line, got[line])
		}
	}
	if len(findings) != len(want) {
		for _, f := range findings {
			t.Logf("finding: %s: %s", f.pos, f.msg)
		}
		t.Fatalf("%d findings for %d BAD markers", len(findings), len(want))
	}
}

// TestCleanOnOwnSource keeps the linter self-hosting: its own source
// (and by extension every non-fixture file it ships with) must pass.
func TestCleanOnOwnSource(t *testing.T) {
	findings, err := lintFiles([]string{"main.go", "main_test.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.pos, f.msg)
	}
}

// TestExportFixtures runs the exported-surface rule over a fixture
// module (with a nested module standing in for benchmark/) and checks
// it flags exactly the BAD-marked declarations: a dead export, exports
// only its own package's or another package's tests use, one only a
// test-support package uses, a self-reference, an unused field and
// method, a type only its own methods name, a paper entry no example
// calls, and a stale inspector entry. A generic-constraint method, the
// error methods, a benchmark-only use, allowlisted names and the
// test-support package's own exports stay clean.
func TestExportFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "exports")
	text, err := os.ReadFile(filepath.Join(dir, "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllowlist(string(text))
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	u, modPath, err := loadModule(abs)
	if err != nil {
		t.Fatal(err)
	}
	findings := u.exportFindings(modPath, allow)
	want := map[string]bool{} // "file:line" of each BAD marker
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := readLines(path)
		for i, line := range src {
			if strings.Contains(line, "// BAD") {
				want[fmt.Sprintf("%s:%d", path, i+1)] = true
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture has no BAD markers; the test is vacuous")
	}
	got := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
		if !want[key] || got[key] {
			t.Errorf("unexpected finding: %s: %s", f.pos, f.msg)
		}
		got[key] = true
	}
	for key := range want {
		if !got[key] {
			t.Errorf("BAD marker at %s produced no finding", key)
		}
	}
}

// TestNoUnreferencedExports holds the repository to the
// exported-surface and pure-type rules, so go test ./... enforces them
// as make lint does.
func TestNoUnreferencedExports(t *testing.T) {
	findings, err := lintModule(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.pos, f.msg)
	}
}

func TestParseAllowlistRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{"paper lite/x.Y", "other lite/x.Y why", "lite/x.Y LT_y"} {
		if _, err := parseAllowlist(line); err == nil {
			t.Errorf("parseAllowlist(%q) accepted it", line)
		}
	}
}

// TestPureFixtures runs the pure-type rule over a fixture module whose
// internal/lite mirrors the pure files: it must flag exactly the
// BAD-marked lines, a pure file's banned import and each assignment
// another file makes to a pure type's field (a plain, compound, inc/dec
// or element write, a promoted field included), and leave reads,
// method calls, the type's own file and other types' fields alone.
func TestPureFixtures(t *testing.T) {
	abs, err := filepath.Abs(filepath.Join("testdata", "pure"))
	if err != nil {
		t.Fatal(err)
	}
	u, modPath, err := loadModule(abs)
	if err != nil {
		t.Fatal(err)
	}
	findings := u.pureFindings(abs, modPath)
	want := map[string]bool{}
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := readLines(path)
		for i, line := range src {
			if strings.Contains(line, "// BAD") {
				want[fmt.Sprintf("%s:%d", path, i+1)] = true
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
		if !want[key] || got[key] {
			t.Errorf("unexpected finding: %s: %s", f.pos, f.msg)
		}
		got[key] = true
	}
	for key := range want {
		if !got[key] {
			t.Errorf("BAD marker at %s produced no finding", key)
		}
	}
}
