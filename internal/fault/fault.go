// Package fault is a deterministic failpoint framework for crash and
// chaos testing.
//
// Production code registers named points once at package init
// (Register) and consults them on the hot path (Point.Hit or
// Point.BeforeWrite). Tests arm a point with a Spec — fail on the
// Nth hit with an injected error, a panic, or a partial write — drive
// the system until the fault fires, and then assert on recovery.
//
// The framework is always compiled in. When nothing is armed the whole
// cost of a Hit is one atomic load and a branch, so instrumented hot
// paths (leaf scans, append journaling, snapshot writes) pay
// effectively nothing in production. There is no build tag to forget:
// `go test ./...` runs the same code CI's chaos job does, the chaos
// job just arms more faults.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrInjected is the root of every error returned by a fired failpoint.
// Tests match it with errors.Is to tell injected failures from real
// ones.
var ErrInjected = errors.New("fault: injected failure")

// Action selects what a fired failpoint does.
type Action int

const (
	// Error makes Hit return an injected error (Spec.Err, or a
	// generic one wrapping ErrInjected).
	Error Action = iota
	// Panic makes Hit panic with a value wrapping the point name.
	Panic
	// PartialWrite is for write sites using BeforeWrite: the site is
	// told to write only Spec.Keep bytes of the buffer and then
	// return the injected error, leaving a torn record behind.
	PartialWrite
)

func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case PartialWrite:
		return "partial-write"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Spec describes how an armed point misbehaves.
type Spec struct {
	// Action is what happens when the point fires.
	Action Action
	// After is the number of hits to let through before firing: the
	// point fires on hit After+1 (counted from Arm). Zero fires on
	// the first hit.
	After int
	// Repeat keeps the point armed after it fires. The default is to
	// fire exactly once and auto-disarm, which matches crash tests
	// (a process only crashes at an instant once).
	Repeat bool
	// Err overrides the injected error for Error and PartialWrite
	// actions. It is wrapped so errors.Is(err, ErrInjected) still
	// holds.
	Err error
	// Keep is the number of leading bytes a PartialWrite lets
	// through (clamped to the buffer length at the site).
	Keep int
}

// Point is a named failpoint. Obtain one with Register at package init
// and call Hit (or BeforeWrite) at the instrumented site.
type Point struct {
	name  string
	spec  atomic.Pointer[Spec]
	hits  atomic.Int64 // hits since armed
	fired atomic.Int64 // total fires since process start
}

// armed counts currently armed points process-wide. It gates the fast
// path: when zero, Hit is a single atomic load and a branch.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points = map[string]*Point{}
)

// Register returns the named point, creating it if needed. It is safe
// to call from multiple packages' init functions; the same name always
// yields the same point.
func Register(name string) *Point {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &Point{name: name}
	points[name] = p
	return p
}

// Names returns the names of all registered points, sorted. Crash
// matrix tests iterate this so every instrumented site is exercised.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for n := range points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Arm makes the named point fire according to spec. The point must
// already be registered (arming a typo'd name is a test bug, not a
// silent no-op). The hit counter restarts at zero.
func Arm(name string, spec Spec) error {
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return fmt.Errorf("fault: arm %q: no such point", name)
	}
	p.hits.Store(0)
	if p.spec.Swap(&spec) == nil {
		armed.Add(1)
	}
	return nil
}

// Disarm deactivates the named point if it is armed. Unknown names are
// ignored so tests can disarm unconditionally in cleanup.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		if p.spec.Swap(nil) != nil {
			armed.Add(-1)
		}
	}
}

// DisarmAll deactivates every armed point. Call it from test cleanup
// so a failed test cannot poison the next one.
func DisarmAll() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		if p.spec.Swap(nil) != nil {
			armed.Add(-1)
		}
	}
}

// Fired reports how many times the named point has fired since process
// start. Tests use it to confirm a scenario actually reached the
// instrumented site.
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired.Load()
	}
	return 0
}

type panicValue struct {
	point string
	err   error
}

func (v panicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s", v.point)
}

// IsInjectedPanic reports whether a recovered panic value came from a
// fired failpoint, so panic-isolation layers can tell injected panics
// apart from real bugs in logs.
func IsInjectedPanic(r any) bool {
	_, ok := r.(panicValue)
	return ok
}

// Hit consults the point. Disarmed (the overwhelmingly common case) it
// returns nil after one atomic load. Armed with an Error or
// PartialWrite action it returns the injected error on the firing hit;
// armed with Panic it panics.
func (p *Point) Hit() error {
	if armed.Load() == 0 {
		return nil
	}
	return p.hitSlow(0)
}

// BeforeWrite consults the point at a write site about to write n
// bytes. It returns how many bytes the site should actually write and
// the error the site must return afterwards. Disarmed it returns
// (n, nil). A PartialWrite action returns (min(Keep, n), err), telling
// the site to leave a torn record; other actions behave as in Hit.
func (p *Point) BeforeWrite(n int) (int, error) {
	if armed.Load() == 0 {
		return n, nil
	}
	err := p.hitSlow(n)
	if err == nil {
		return n, nil
	}
	var pv partialErr
	if errors.As(err, &pv) && pv.keep < n {
		return pv.keep, err
	}
	if errors.As(err, &pv) {
		return n, err
	}
	return 0, err
}

// partialErr carries the Keep byte count of a PartialWrite through the
// error value so BeforeWrite can split behavior without re-reading the
// (possibly already disarmed) spec.
type partialErr struct {
	keep int
	err  error
}

func (e partialErr) Error() string { return e.err.Error() }
func (e partialErr) Unwrap() error { return e.err }

func (p *Point) hitSlow(writeLen int) error {
	sp := p.spec.Load()
	if sp == nil {
		return nil
	}
	if p.hits.Add(1) <= int64(sp.After) {
		return nil
	}
	if !sp.Repeat {
		// One-shot: race between concurrent hitters is resolved by
		// the swap — only the goroutine that disarms fires.
		mu.Lock()
		won := p.spec.CompareAndSwap(sp, nil)
		if won {
			armed.Add(-1)
		}
		mu.Unlock()
		if !won {
			return nil
		}
	}
	p.fired.Add(1)
	err := sp.Err
	if err == nil {
		err = fmt.Errorf("%w at %s", ErrInjected, p.name)
	} else if !errors.Is(err, ErrInjected) {
		err = fmt.Errorf("%w at %s: %w", ErrInjected, p.name, err)
	}
	switch sp.Action {
	case Panic:
		panic(panicValue{point: p.name, err: err})
	case PartialWrite:
		return partialErr{keep: sp.Keep, err: err}
	default:
		return err
	}
}
