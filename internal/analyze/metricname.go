package analyze

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// metricsPath is the metrics registry package. It is exempt from the
// prefix rule: its exposition code writes the runtime's go_* families.
const metricsPath = "repro/internal/metrics"

// MetricName enforces the exposition conventions README documents and
// dashboards depend on: every metric this module registers is
// messi_*-prefixed snake_case, counters end in _total, histograms carry
// their unit (_seconds or _bytes), and a name means the same kind
// everywhere — the registry panics on a kind conflict at runtime, but
// only if the two registrations share a process and a Registry.
//
// Rules:
//
//  1. Names passed to Registry.Counter/Gauge/GaugeFunc/Histogram must
//     be compile-time constants: dynamic names defeat grepping, the
//     docs table, and cardinality review.
//  2. Names match ^messi_[a-z0-9]+(_[a-z0-9]+)*$.
//  3. Counters end in _total; histograms end in _seconds or _bytes;
//     gauges must NOT end in _total (that suffix promises a counter).
//  4. (whole-program) The same name is never registered as two
//     different kinds across the codebase.
var MetricName = &Analyzer{
	Name:   "metricname",
	Doc:    "checks metric registration: constant messi_* snake_case names, kind-appropriate unit suffixes, and one kind per name across the codebase",
	Run:    runMetricName,
	Finish: finishMetricName,
}

var metricNameRE = regexp.MustCompile(`^messi_[a-z0-9]+(_[a-z0-9]+)*$`)

// metricUse records one registration site.
type metricUse struct {
	kind string
	pos  token.Pos
}

// metricNameFacts is the per-package result aggregated by Finish.
type metricNameFacts struct {
	uses map[string][]metricUse // name -> registration sites
}

func runMetricName(pass *Pass) (any, error) {
	info := pass.TypesInfo
	facts := &metricNameFacts{uses: map[string][]metricUse{}}
	exempt := pass.Path == metricsPath

	Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return
		}
		fn := calleeFunc(info, call)
		var kind string
		switch {
		case isMethodOf(fn, metricsPath, "Registry", "Counter"):
			kind = "counter"
		case isMethodOf(fn, metricsPath, "Registry", "Gauge"),
			isMethodOf(fn, metricsPath, "Registry", "GaugeFunc"):
			kind = "gauge"
		case isMethodOf(fn, metricsPath, "Registry", "Histogram"):
			kind = "histogram"
		default:
			return
		}
		if exempt {
			return
		}
		name, constant := constString(info, call.Args[0])
		if !constant {
			pass.Reportf(call.Args[0].Pos(), "metric name must be a compile-time constant so the exposition surface stays auditable")
			return
		}
		if !metricNameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(), "metric name %q does not match %s", name, metricNameRE)
			return
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				pass.Reportf(call.Args[0].Pos(), "counter %q must end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				pass.Reportf(call.Args[0].Pos(), "histogram %q must carry its unit: end in _seconds or _bytes", name)
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				pass.Reportf(call.Args[0].Pos(), "gauge %q must not end in _total: that suffix promises a monotone counter", name)
			}
		}
		facts.uses[name] = append(facts.uses[name], metricUse{kind: kind, pos: call.Args[0].Pos()})
	})
	return facts, nil
}

func finishMetricName(s *Suite) {
	type namedUse struct {
		name string
		metricUse
	}
	var all []namedUse
	for _, r := range s.Results {
		facts, ok := r.Result.(*metricNameFacts)
		if !ok {
			continue
		}
		for name, uses := range facts.uses {
			for _, u := range uses {
				all = append(all, namedUse{name: name, metricUse: u})
			}
		}
	}
	// Position order makes the earliest registration the canonical kind,
	// independent of map iteration order.
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	firstKind := map[string]metricUse{}
	for _, u := range all {
		if prev, ok := firstKind[u.name]; !ok {
			firstKind[u.name] = u.metricUse
		} else if prev.kind != u.kind {
			s.Reportf(u.pos, "metric %q registered as %s here but as %s at %s: one name, one kind — the registry panics if these ever share a process", u.name, u.kind, prev.kind, s.Fset.Position(prev.pos))
		}
	}
}
