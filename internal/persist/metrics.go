package persist

import (
	"os"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/shard"
)

// Snapshot I/O telemetry. The persist API is package-level functions, so
// the hook is a package-level registry installed once at process startup
// (SetMetrics); the two exported entry points here wrap the unexported
// implementations, so each save or load is observed exactly once. A nil
// (never-installed) hook costs one atomic pointer load per snapshot
// operation — nothing on query paths.

// persistInstruments is the registered instrument set.
type persistInstruments struct {
	saveSeconds  *metrics.Histogram
	loadSeconds  *metrics.Histogram
	saveBytes    *metrics.Counter
	loadBytes    *metrics.Counter
	saveFailures *metrics.Counter
	loadFailures *metrics.Counter
}

var instruments atomic.Pointer[persistInstruments]

// SetMetrics installs the snapshot I/O telemetry on r: save/load wall
// time histograms, cumulative bytes written/read, and failure counters.
// Passing nil uninstalls. Safe for concurrent use with snapshot I/O.
func SetMetrics(r *metrics.Registry) {
	if r == nil {
		instruments.Store(nil)
		return
	}
	instruments.Store(&persistInstruments{
		saveSeconds: r.Histogram("messi_snapshot_save_seconds",
			"Wall time of snapshot directory saves."),
		loadSeconds: r.Histogram("messi_snapshot_load_seconds",
			"Wall time of snapshot directory loads."),
		saveBytes: r.Counter("messi_snapshot_save_bytes_total",
			"Cumulative bytes written by successful snapshot saves."),
		loadBytes: r.Counter("messi_snapshot_load_bytes_total",
			"Cumulative bytes read by successful snapshot loads."),
		saveFailures: r.Counter("messi_snapshot_save_failures_total",
			"Snapshot saves that returned an error."),
		loadFailures: r.Counter("messi_snapshot_load_failures_total",
			"Snapshot loads that returned an error."),
	})
}

// observe records one snapshot operation against the installed hook.
func observe(dur *metrics.Histogram, bytes, failures *metrics.Counter, dir string, elapsed time.Duration, err error) {
	if err != nil {
		failures.Inc()
		return
	}
	dur.Observe(elapsed)
	bytes.Add(Size(dir))
}

// Size reports the on-disk size of a snapshot directory: the summed
// sizes of the files inside it (0 when dir cannot be listed).
func Size(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// WriteDir writes x as a snapshot directory (see writeDir for the
// manifest contract), recording save telemetry when a metrics registry
// is installed via SetMetrics.
func WriteDir(dir string, x *shard.Index, normalize bool) error {
	start := time.Now()
	err := writeDir(dir, x, normalize)
	if m := instruments.Load(); m != nil {
		observe(m.saveSeconds, m.saveBytes, m.saveFailures, dir, time.Since(start), err)
	}
	return err
}

// ReadDir loads a snapshot directory (see readDir for the retry
// contract), recording load telemetry when a metrics registry is
// installed via SetMetrics.
func ReadDir(dir string) (*shard.Index, bool, error) {
	start := time.Now()
	x, normalize, err := readDir(dir)
	if m := instruments.Load(); m != nil {
		observe(m.loadSeconds, m.loadBytes, m.loadFailures, dir, time.Since(start), err)
	}
	return x, normalize, err
}
