package main

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// Per-phase timeouts: a daemon that wedges in any phase becomes a counted
// failure and a non-zero exit, never a hang.
const (
	bootTimeout  = 15 * time.Second
	opTimeout    = 10 * time.Second // one short HTTP call
	studyTimeout = 90 * time.Second // one study, start to terminal
	stopTimeout  = 5 * time.Second  // SIGTERM to exit, then SIGKILL
)

// cleanup tracks every child process and scratch directory so each exit
// path — normal return, violation, timeout, SIGINT/SIGTERM — kills the
// children and removes the journal directories.
var cleanup struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}

func trackDir(dir string) {
	cleanup.mu.Lock()
	if cleanup.dirs == nil {
		cleanup.dirs = map[string]struct{}{}
	}
	cleanup.dirs[dir] = struct{}{}
	cleanup.mu.Unlock()
}

// removeDir deletes a tracked scratch directory now.
func removeDir(dir string) {
	cleanup.mu.Lock()
	delete(cleanup.dirs, dir)
	cleanup.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanupAll kills every live child and removes every tracked directory.
func cleanupAll() {
	cleanup.mu.Lock()
	children := make([]*child, 0, len(cleanup.children))
	for c := range cleanup.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(cleanup.dirs))
	for d := range cleanup.dirs {
		dirs = append(dirs, d)
	}
	cleanup.dirs = nil
	cleanup.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// buildHpod compiles cmd/hpod from the enclosing checkout into out/bin and
// returns the binary path and how long the build took (a no-op rebuild
// when the cache is warm).
func buildHpod(ctx context.Context, outDir string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "hpod"))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/hpod")
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building hpod: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// child is one running hpod process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{} // closed once Wait returned
	// boot is spawn to first /healthz 200.
	boot time.Duration
}

// startChild spawns hpod with flags plus a fresh -addr, appends its stdout
// and stderr to logPath, and waits for /healthz to answer.
func startChild(ctx context.Context, bin string, flags []string, logPath string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive a harness that dies without running its
	// cleanup (SIGKILL of the harness itself).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting hpod: %w", err)
	}
	c := &child{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no information
		close(c.exited)
	}()
	cleanup.mu.Lock()
	if cleanup.children == nil {
		cleanup.children = map[*child]struct{}{}
	}
	cleanup.children[c] = struct{}{}
	cleanup.mu.Unlock()

	bootCtx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.boot = time.Since(t0)
				return c, nil
			}
		}
		select {
		case <-c.exited:
			c.kill()
			return nil, fmt.Errorf("hpod exited during boot (see %s)", logPath)
		case <-bootCtx.Done():
			c.kill()
			return nil, fmt.Errorf("hpod did not answer /healthz within %s (see %s)", bootTimeout, logPath)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// kill sends SIGKILL and waits for the process to end; safe to call twice.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
	c.release()
}

// stop asks for a graceful shutdown and falls back to SIGKILL.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-c.exited:
	case <-time.After(stopTimeout):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	c.release()
}

func (c *child) release() {
	cleanup.mu.Lock()
	delete(cleanup.children, c)
	cleanup.mu.Unlock()
	c.log.Close() // closing twice only returns an error
}

// procUsage is a process's CPU time and memory high-water mark.
type procUsage struct {
	cpuSeconds float64 // utime + stime
	hwmMB      float64 // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes it
// at 100 for every architecture Go supports.
const clockTick = 100

// readProc reads /proc/<pid>/stat and /proc/<pid>/status.
func readProc(pid int) (procUsage, error) {
	var u procUsage
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis, which makes utime and stime fields 11 and
	// 12 of the remainder.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("unparseable /proc stat times")
	}
	u.cpuSeconds = (utime + stime) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				u.hwmMB = kb / 1024
			}
		}
	}
	return u, nil
}

func (c *child) usage() (procUsage, error) { return readProc(c.cmd.Process.Pid) }
