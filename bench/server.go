package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyLimit is how long a booting server may take to answer /readyz with
// 200 before the run refuses to time anything.
const readyLimit = 60 * time.Second

// buildServer compiles cmd/messi-serve from source into dir. moduleDir is
// the benchmark's own module directory, from which the parent module's
// packages resolve through the replace directive.
func buildServer(ctx context.Context, moduleDir, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "messi-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/messi-serve")
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build messi-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running messi-serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *tailBuffer
	done chan struct{} // closed when the stderr reader has drained
	once sync.Once     // kill
}

// bootServer starts messi-serve on a free loopback port (the kernel picks
// it; the address is read back from the server's own "listening" log line)
// and waits for /readyz to answer 200. The returned duration runs from
// process start to that first 200.
func bootServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server must not outlive the benchmark, however the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: &tailBuffer{}, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(io.TeeReader(stderr, s.log))
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent && strings.Contains(line, "listening") {
				if i := strings.Index(line, "addr="); i >= 0 {
					addrc <- strings.TrimSpace(line[i+len("addr="):])
					sent = true
				}
			}
		}
		if !sent {
			close(addrc)
		}
	}()

	fail := func(err error) (*server, time.Duration, error) {
		s.kill()
		return nil, 0, fmt.Errorf("%w\nserver log tail:\n%s", err, s.log.String())
	}
	deadline := time.NewTimer(readyLimit)
	defer deadline.Stop()
	select {
	case addr, ok := <-addrc:
		if !ok {
			return fail(fmt.Errorf("messi-serve exited before listening"))
		}
		s.base = "http://" + addr
	case <-deadline.C:
		return fail(fmt.Errorf("messi-serve did not open its listener within %v", readyLimit))
	case <-ctx.Done():
		return fail(ctx.Err())
	}

	// 1 ms polling resolves even the smallest workload's 50 ms boot to 2%,
	// and a poll costs the booting server, which wants both cores, ~50 µs.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-tick.C:
		case <-s.done:
			return fail(fmt.Errorf("messi-serve exited during boot"))
		case <-deadline.C:
			return fail(fmt.Errorf("/readyz not 200 within %v: refusing to time", readyLimit))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
}

// kill stops the server and waits until the process has ended. SIGKILL, not
// a graceful shutdown: nothing the benchmark measures lives in the shutdown
// path, and a live server would spend seconds writing a final snapshot.
// Safe to call more than once.
func (s *server) kill() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		<-s.done
		s.cmd.Wait()
	})
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// tailBuffer keeps the last few KiB written to it — the server's log tail,
// shown when a boot fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
