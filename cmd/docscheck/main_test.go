package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates path under dir, making parent directories as needed.
func write(t *testing.T, dir, path, content string) string {
	t.Helper()
	full := filepath.Join(dir, path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

// inDir chdirs into dir for the duration of the test so relative links
// resolve the way they do in CI (run from the repo root).
func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func runCheck(t *testing.T, files ...string) (int, string) {
	t.Helper()
	var sb strings.Builder
	code, err := run(files, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return code, sb.String()
}

func TestCleanDoc(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Target Heading\n\ntext\n")
	write(t, dir, "doc.md", strings.Join([]string{
		"# My Doc",
		"",
		"See [other](other.md) and [its heading](other.md#target-heading).",
		"Same-file: [here](#my-doc).",
		"External: [gh](https://example.com/x) and [mail](mailto:a@b.c).",
		"",
		"```go",
		"x := 1",
		"_ = x",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 0 {
		t.Fatalf("want clean, got exit %d:\n%s", code, out)
	}
}

// TestStalePackageRow: a table row naming a package directory that does
// not exist is a finding; existing directories (also as the prefix of a
// longer path), prose and code fences are not.
func TestStalePackageRow(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "internal/kept/doc.go", "package kept\n")
	write(t, dir, "cmd/tool/main.go", "package main\n")
	write(t, dir, "doc.md", strings.Join([]string{
		"| Package | What it is |",
		"| --- | --- |",
		"| `internal/kept`, `cmd/tool` | still here |",
		"| `internal/kept/doc.go` | a file under a live package |",
		"| `internal/gone` | deleted two PRs ago |",
		"| `cmd/gone-too` | so was this |",
		"",
		"Prose may mention `internal/history` freely.",
		"",
		"```",
		"| `internal/fenced` | not a table |",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 {
		t.Fatalf("want findings, got exit %d:\n%s", code, out)
	}
	for _, want := range []string{"line 5: table row names internal/gone", "line 6: table row names cmd/gone-too", "2 problem(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBrokenLinkAndAnchor(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Real Heading\n")
	write(t, dir, "doc.md", strings.Join([]string{
		"[gone](missing.md)",
		"[bad anchor](other.md#no-such-heading)",
		"[bad self](#nope)",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out)
	}
	for _, want := range []string{"missing.md does not exist", "#no-such-heading", "#nope"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRepoEscapingLinkSkipped(t *testing.T) {
	dir := t.TempDir()
	// Mimics the CI badge: a GitHub web path that climbs out of the repo.
	write(t, dir, "doc.md", "[badge](../../actions/workflows/ci.yml)\n")
	inDir(t, dir)
	if code, out := runCheck(t, "doc.md"); code != 0 {
		t.Fatalf("repo-escaping link should be skipped, got exit %d:\n%s", code, out)
	}
}

func TestDuplicateHeadingAnchors(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.md", strings.Join([]string{
		"# Setup",
		"## Setup",
		"[first](#setup) [second](#setup-1) [third](#setup-2)",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 {
		t.Fatalf("want exit 1 (no #setup-2), got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "#setup-2") || strings.Contains(out, "#setup-1") {
		t.Errorf("only #setup-2 should fail:\n%s", out)
	}
}

func TestLinksInsideFencesIgnored(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.md", strings.Join([]string{
		"```",
		"[not a link](missing.md)",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	if code, out := runCheck(t, "doc.md"); code != 0 {
		t.Fatalf("fenced pseudo-link should be ignored, got exit %d:\n%s", code, out)
	}
}

func TestBadGoBlock(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.md", strings.Join([]string{
		"```go",
		"func { nope",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 || !strings.Contains(out, "go block parses neither") {
		t.Fatalf("want parse failure, got exit %d:\n%s", code, out)
	}
}

func TestFullFileGoBlockMustBeGofmtClean(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.md", strings.Join([]string{
		"```go",
		"package main",
		"func main(){println(1)}",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 || !strings.Contains(out, "not gofmt-clean") {
		t.Fatalf("want gofmt failure, got exit %d:\n%s", code, out)
	}
}

func TestFileMarkerMatch(t *testing.T) {
	dir := t.TempDir()
	const prog = "package main\n\nfunc main() {\n\tprintln(1)\n}\n"
	write(t, dir, "examples/x/main.go", prog)
	write(t, dir, "doc.md", strings.Join([]string{
		"<!-- docscheck:file examples/x/main.go -->",
		"```go",
		strings.TrimSuffix(prog, "\n"),
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	if code, out := runCheck(t, "doc.md"); code != 0 {
		t.Fatalf("matching marker should pass, got exit %d:\n%s", code, out)
	}
}

func TestFileMarkerDrift(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "examples/x/main.go", "package main\n\nfunc main() {\n\tprintln(2)\n}\n")
	write(t, dir, "doc.md", strings.Join([]string{
		"<!-- docscheck:file examples/x/main.go -->",
		"```go",
		"package main",
		"",
		"func main() {",
		"\tprintln(1)",
		"}",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 || !strings.Contains(out, "differs from examples/x/main.go") {
		t.Fatalf("want drift failure, got exit %d:\n%s", code, out)
	}
}

func TestFileMarkerMissingTarget(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "doc.md", strings.Join([]string{
		"<!-- docscheck:file nope/main.go -->",
		"```go",
		"package main",
		"```",
		"",
	}, "\n"))
	inDir(t, dir)
	code, out := runCheck(t, "doc.md")
	if code != 1 || !strings.Contains(out, "docscheck:file nope/main.go") {
		t.Fatalf("want missing-target failure, got exit %d:\n%s", code, out)
	}
}

func TestNoArgsErrors(t *testing.T) {
	var sb strings.Builder
	if _, err := run(nil, &sb); err == nil {
		t.Fatal("want error on no files")
	}
}

// TestRepoDocsAreClean runs the checker over the repository's real docs —
// the same invocation CI uses — so a broken link or drifted cookbook
// block fails `go test ./...` locally, not just in the docs job.
func TestRepoDocsAreClean(t *testing.T) {
	inDir(t, "../..")
	code, out := runCheck(t, "README.md", "docs/ARCHITECTURE.md", "docs/COOKBOOK.md", "docs/REPRODUCTION.md")
	if code != 0 {
		t.Fatalf("repo docs have problems:\n%s", out)
	}
}
