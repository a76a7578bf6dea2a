package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// proc is one child daemon of the system under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped

	mu       sync.Mutex
	lines    []string      // everything the child printed, stdout and stderr
	changed  chan struct{} // closed and replaced whenever lines grows
	stopping bool
	waitErr  error
}

// procGroup owns every child the benchmark starts, so each exit path
// (normal teardown, an error, a signal) can reap them all.
type procGroup struct {
	mu     sync.Mutex
	procs  []*proc
	closed bool // set by shutdown: no new children
}

// start launches bin with args. The child gets SIGKILL if the
// benchmark dies without reaping it.
func (g *procGroup) start(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), changed: make(chan struct{})}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, errors.New("benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	g.procs = append(g.procs, p)
	go p.collect(out)
	return p, nil
}

// collect records the child's output, then reaps it.
func (p *proc) collect(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		p.mu.Lock()
		p.lines = append(p.lines, sc.Text())
		close(p.changed)
		p.changed = make(chan struct{})
		p.mu.Unlock()
	}
	err := p.cmd.Wait()
	p.mu.Lock()
	p.waitErr = err
	p.mu.Unlock()
	close(p.done)
}

// await returns the first submatch of re in the child's output, waiting
// up to timeout for the line to appear.
func (p *proc) await(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		for _, l := range p.lines {
			if m := re.FindStringSubmatch(l); m != nil {
				p.mu.Unlock()
				return m[1], nil
			}
		}
		changed := p.changed
		p.mu.Unlock()
		select {
		case <-changed:
		case <-p.done:
			return "", fmt.Errorf("%s exited before announcing %q: %s", p.name, re, p.tail())
		case <-deadline.C:
			return "", fmt.Errorf("%s did not announce %q within %v: %s", p.name, re, timeout, p.tail())
		}
	}
}

// tail is the last few lines the child printed, for error messages.
func (p *proc) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines[max(0, len(p.lines)-5):], " | ")
}

// exitedEarly reports a child that ended without being told to.
func (p *proc) exitedEarly() error {
	select {
	case <-p.done:
	default:
		return nil
	}
	p.mu.Lock()
	stopping, err := p.stopping, p.waitErr
	p.mu.Unlock()
	if stopping {
		return nil
	}
	return fmt.Errorf("%s exited early (%v): %s", p.name, err, p.tail())
}

// stop kills the child and waits until it has been reaped.
func (p *proc) stop() {
	p.mu.Lock()
	p.stopping = true
	p.mu.Unlock()
	_ = p.cmd.Process.Kill() // an already-exited child is reaped below either way
	<-p.done
}

// alive is nil while every child runs, else the first early exit.
func (g *procGroup) alive() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.procs {
		if err := p.exitedEarly(); err != nil {
			return err
		}
	}
	return nil
}

// stopAll kills and reaps every child, newest first, so clients go
// before the daemons they talk to.
func (g *procGroup) stopAll() {
	g.mu.Lock()
	procs := g.procs
	g.procs = nil
	g.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
	}
}

// shutdown refuses further starts, then kills and reaps every child.
func (g *procGroup) shutdown() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.stopAll()
}

// pids lists the running children's process ids.
func (g *procGroup) pids() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.procs))
	for _, p := range g.procs {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

// procUsage is one process's resource counters read from /proc.
type procUsage struct {
	CPU      time.Duration // user + system time so far
	HWMBytes int64         // peak resident set size (VmHWM)
}

// readUsage reads /proc/<pid>/stat and /proc/<pid>/status.
func readUsage(pid int) (procUsage, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procUsage{}, fmt.Errorf("pid %d: %w", pid, err)
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return procUsage{}, err
	}
	hwm, err := parseStatusHWM(string(status))
	if err != nil {
		return procUsage{}, fmt.Errorf("pid %d: %w", pid, err)
	}
	return procUsage{CPU: cpu, HWMBytes: hwm}, nil
}

// usageOf reads the counters of every listed process.
func usageOf(pids []int) (map[int]procUsage, error) {
	out := make(map[int]procUsage, len(pids))
	for _, pid := range pids {
		u, err := readUsage(pid)
		if err != nil {
			return nil, err
		}
		out[pid] = u
	}
	return out, nil
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesized and may itself hold spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseStatusHWM extracts VmHWM (peak RSS) in bytes from
// /proc/<pid>/status.
func parseStatusHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: VmHWM %q: %w", f[0], err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}
