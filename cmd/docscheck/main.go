// Command docscheck is the CI documentation gate. Over a set of markdown
// files it verifies:
//
//   - every relative link resolves to an existing file, and every anchor
//     (same-file or cross-file) matches a heading in its target, using
//     GitHub's heading-slug rules;
//   - every ```go code block parses — full files as files, fragments
//     wrapped in a synthetic package/function — and full-file blocks are
//     gofmt-clean;
//   - every block annotated `<!-- docscheck:file <path> -->` is
//     byte-identical to that file, so a cookbook's embedded program can
//     never drift from the runnable example it documents;
//   - every backticked `cmd/<name>` or `internal/<name>` in a table row is
//     a directory of the module, so a package map cannot outlive the
//     packages it lists.
//
// External URLs are not fetched (CI must not flake on the network), and
// relative links that escape the repository root (GitHub web paths like
// badge targets) are skipped as unverifiable.
//
// Usage:
//
//	docscheck README.md docs/*.md
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run checks every named markdown file, printing one line per problem.
// Exit code 0 means clean, 1 means findings.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("docscheck", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	files := fs.Args()
	if len(files) == 0 {
		return 0, errors.New("no markdown files given")
	}
	root, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	problems := 0
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		for _, p := range checkFile(root, path, string(b)) {
			fmt.Fprintf(stdout, "%s: %s\n", path, p)
			problems++
		}
	}
	if problems > 0 {
		fmt.Fprintf(stdout, "\n%d problem(s)\n", problems)
		return 1, nil
	}
	fmt.Fprintf(stdout, "docs clean: %d file(s)\n", len(files))
	return 0, nil
}

// checkFile returns every problem found in one markdown document.
func checkFile(root, path, content string) []string {
	var problems []string
	lines := strings.Split(content, "\n")

	problems = append(problems, checkLinks(root, path, lines)...)
	problems = append(problems, checkCodeBlocks(root, path, lines)...)
	problems = append(problems, checkPackageRows(root, lines)...)
	return problems
}

var (
	linkRe   = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	markerRe = regexp.MustCompile(`<!-- docscheck:file ([^ ]+) -->`)
	fenceRe  = regexp.MustCompile("^```([a-zA-Z0-9]*)")
	pkgRefRe = regexp.MustCompile("`((?:cmd|internal)/[A-Za-z0-9_-]+)[`/]")
)

// checkPackageRows verifies that every `cmd/<name>` or `internal/<name>`
// named in a table row is a directory under root.
func checkPackageRows(root string, lines []string) []string {
	var problems []string
	inFence := false
	for i, line := range lines {
		if fenceRe.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range pkgRefRe.FindAllStringSubmatch(line, -1) {
			if st, err := os.Stat(filepath.Join(root, m[1])); err != nil || !st.IsDir() {
				problems = append(problems, fmt.Sprintf("line %d: table row names %s, which is not a directory of the module", i+1, m[1]))
			}
		}
	}
	return problems
}

// checkLinks verifies relative link targets and heading anchors.
func checkLinks(root, path string, lines []string) []string {
	var problems []string
	inFence := false
	for i, line := range lines {
		if fenceRe.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; never fetched
			}
			file, anchor, _ := strings.Cut(target, "#")
			resolved := path
			if file != "" {
				resolved = filepath.Join(filepath.Dir(path), file)
				abs, err := filepath.Abs(resolved)
				if err != nil || !strings.HasPrefix(abs+string(filepath.Separator), root+string(filepath.Separator)) {
					continue // escapes the repo (GitHub web path); unverifiable
				}
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("line %d: broken link %q: %s does not exist", i+1, target, resolved))
					continue
				}
			}
			if anchor == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				continue // anchors only checkable in markdown
			}
			b, err := os.ReadFile(resolved)
			if err != nil {
				problems = append(problems, fmt.Sprintf("line %d: cannot read %s for anchor check: %v", i+1, resolved, err))
				continue
			}
			if !hasAnchor(string(b), anchor) {
				problems = append(problems, fmt.Sprintf("line %d: link %q: no heading in %s slugs to #%s", i+1, target, resolved, anchor))
			}
		}
	}
	return problems
}

// hasAnchor reports whether any heading in the document slugs to anchor.
func hasAnchor(content, anchor string) bool {
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(content, "\n") {
		if fenceRe.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if !strings.HasPrefix(heading, " ") {
			continue
		}
		slug := slugify(strings.TrimSpace(heading))
		// GitHub disambiguates duplicate headings with -1, -2, …
		if n := seen[slug]; n > 0 {
			seen[slug]++
			slug = fmt.Sprintf("%s-%d", slug, n)
		} else {
			seen[slug] = 1
		}
		if slug == anchor {
			return true
		}
	}
	return false
}

// slugify applies GitHub's heading-anchor rules: lowercase, spaces to
// hyphens, punctuation dropped (hyphens and underscores kept).
func slugify(heading string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		case r == ' ':
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// checkCodeBlocks validates ```go fences and docscheck:file markers.
func checkCodeBlocks(root, path string, lines []string) []string {
	var problems []string
	pendingFile := "" // set by a docscheck:file marker awaiting its block
	pendingLine := 0
	for i := 0; i < len(lines); i++ {
		if m := markerRe.FindStringSubmatch(lines[i]); m != nil {
			pendingFile, pendingLine = m[1], i+1
			continue
		}
		fence := fenceRe.FindStringSubmatch(lines[i])
		if fence == nil {
			if pendingFile != "" && strings.TrimSpace(lines[i]) != "" {
				problems = append(problems, fmt.Sprintf("line %d: docscheck:file marker not followed by a code block", pendingLine))
				pendingFile = ""
			}
			continue
		}
		// Collect the fenced block.
		start := i + 1
		j := start
		for j < len(lines) && !strings.HasPrefix(lines[j], "```") {
			j++
		}
		if j == len(lines) {
			problems = append(problems, fmt.Sprintf("line %d: unterminated code fence", i+1))
			return problems
		}
		block := strings.Join(lines[start:j], "\n")
		lang := fence[1]

		if pendingFile != "" {
			want, err := os.ReadFile(filepath.Join(root, pendingFile))
			if err != nil {
				problems = append(problems, fmt.Sprintf("line %d: docscheck:file %s: %v", pendingLine, pendingFile, err))
			} else if block+"\n" != string(want) {
				problems = append(problems, fmt.Sprintf("line %d: code block differs from %s — update the doc or the file", pendingLine, pendingFile))
			}
			pendingFile = ""
		}
		if lang == "go" {
			problems = append(problems, checkGoBlock(block, start+1)...)
		}
		i = j
	}
	return problems
}

// checkGoBlock parses one ```go block: full files directly (and they must
// be gofmt-clean), fragments wrapped in a synthetic package or function.
func checkGoBlock(src string, line int) []string {
	fset := token.NewFileSet()
	if isFullFile(src) {
		if _, err := parser.ParseFile(fset, "block.go", src, 0); err != nil {
			return []string{fmt.Sprintf("line %d: go block does not parse: %v", line, err)}
		}
		formatted, err := format.Source([]byte(src))
		if err == nil && string(formatted) != src+"\n" && string(formatted) != src {
			return []string{fmt.Sprintf("line %d: go block is not gofmt-clean", line)}
		}
		return nil
	}
	for _, candidate := range []string{
		"package p\n" + src,
		"package p\nfunc _() {\n" + src + "\n}",
		"package p\ntype _ interface {\n" + src + "\n}", // bare method signatures
	} {
		if _, err := parser.ParseFile(fset, "block.go", candidate, 0); err == nil {
			return nil
		}
	}
	return []string{fmt.Sprintf("line %d: go block parses neither as declarations nor as statements", line)}
}

// isFullFile reports whether a go block carries its own package clause
// (possibly under a leading comment).
func isFullFile(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		switch {
		case t == "" || strings.HasPrefix(t, "//"):
			continue
		case strings.HasPrefix(t, "/*"):
			return false // block comments before package: treat as fragment
		default:
			return strings.HasPrefix(t, "package ")
		}
	}
	return false
}
