package messi

import (
	"io"

	"repro/internal/metrics"
)

// Metrics is a production metrics registry: atomic counters, gauges, and
// lock-free log2-bucketed latency histograms with Prometheus text-format
// exposition. Attach one to EngineOptions.Metrics (for a live index,
// LiveOptions.Engine.Metrics: its one registry) to collect serving
// telemetry — admission-gate pressure, per-mode query latency histograms,
// cumulative pruning counters, rebuild and snapshot activity — and serve
// it with WriteText (messi-serve exposes it on GET /metrics).
//
// A nil *Metrics disables all measurement everywhere it is accepted: the
// hot paths pay a single nil check, so library users and benchmarks that
// never enable metrics keep their numbers. (It is an alias for the
// internal registry type, so the instruments it hands out are usable
// directly as well.)
type Metrics = metrics.Registry

// MetricLabel is one metric label pair for direct registry use.
type MetricLabel = metrics.Label

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// WriteRuntimeMetrics writes a small set of Go runtime metrics (the
// conventional go_* names) in Prometheus text format — append it to a
// registry exposition for one complete scrape body.
func WriteRuntimeMetrics(w io.Writer) error { return metrics.WriteRuntime(w) }
