package main

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	messi "repro"
)

// readmeRoutes parses the endpoint table in README.md into a set of
// "METHOD /path" patterns. Table rows look like:
//
//	| `/v1/search` | POST | ... |
func readmeRoutes(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `(/[^`]*)` \\| ([A-Z]+) \\|")
	routes := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			routes[m[2]+" "+m[1]] = true
		}
	}
	if len(routes) == 0 {
		t.Fatal("no endpoint table rows found in README.md — did the table format change?")
	}
	return routes
}

// TestREADMEDocumentsServedRoutes pins the README's endpoint table to the
// routes the server actually registers, in both directions: every served
// route is documented, and nothing documented is unserved.
func TestREADMEDocumentsServedRoutes(t *testing.T) {
	documented := readmeRoutes(t)
	served := map[string]bool{}
	for _, pattern := range servedRoutes() {
		served[pattern] = true
		if !documented[pattern] {
			t.Errorf("served route %q is missing from README.md's endpoint table", pattern)
		}
	}
	for pattern := range documented {
		if !served[pattern] {
			t.Errorf("README.md documents %q but the server does not register it", pattern)
		}
	}
}

// TestServedRoutesRegister drives every listed route through the real
// mux: each must resolve to a registered pattern (not the catch-all 404),
// proving servedRoutes() and routes() stay in lockstep.
func TestServedRoutesRegister(t *testing.T) {
	s := newServer(messi.NewMetrics(), false, "", 0)
	for _, pattern := range servedRoutes() {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Fatalf("malformed route pattern %q", pattern)
		}
		_, got := s.mux.Handler(httptest.NewRequest(method, path, nil))
		if got != pattern {
			t.Errorf("route %q resolves to mux pattern %q", pattern, got)
		}
	}
}
