package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestRunExitStatus(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"repro/internal/paa"}, 0},
		{"unresolvable pattern", []string{"repro/internal/nosuchpackage"}, 2},
		{"unknown flag", []string{"-tests=false", "repro/internal/paa"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if tc.want == 0 && stderr.Len() > 0 {
				t.Errorf("run(%q) wrote to stderr:\n%s", tc.args, stderr.String())
			}
		})
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-list) = %d, want 0", got)
	}
	for _, name := range []string{"atomicpair", "rcupublish", "errwrap", "faultsite", "metricname"} {
		if !regexp.MustCompile(`(?m)^` + name + ` +\S`).MatchString(stdout.String()) {
			t.Errorf("-list does not name %s:\n%s", name, stdout.String())
		}
	}
}

// TestFindingsInEveryFileKind runs the one pass over a package with a
// violation in a package file, an in-package test file and an external
// test package, and expects each reported exactly once. The faultsite
// finding comes from a Finish rule, so this also shows those run.
func TestFindingsInEveryFileKind(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"./testdata/flagged"}, &stdout, &stderr); got != 1 {
		t.Fatalf("run = %d, want 1\nstderr:\n%s", got, stderr.String())
	}
	want := []*regexp.Regexp{
		regexp.MustCompile(`^\S*testdata/flagged/flagged\.go:8:\d+: \[errwrap\] \S.*$`),
		regexp.MustCompile(`^\S*testdata/flagged/flagged_test\.go:8:\d+: \[rcupublish\] \S.*$`),
		regexp.MustCompile(`^\S*testdata/flagged/flagged_x_test\.go:6:\d+: \[faultsite\] fault\.Arm of unregistered point "no\.such\.point".*$`),
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Errorf("got %d lines, want %d:\n%s", len(lines), len(want), stderr.String())
	}
	for _, re := range want {
		n := 0
		for _, l := range lines {
			if re.MatchString(l) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d lines match %s, want 1:\n%s", n, re, stderr.String())
		}
	}
}
