package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 250 and 50 ticks; the command
	// name holds spaces and a ')' to trip naive splitting.
	stat := "4242 (qens gw) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 12 0 5000 1000000 2000 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Fatal("truncated stat parsed")
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tqensd\nVmPeak:\t  900000 kB\nVmHWM:\t   16384 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16384<<10 {
		t.Fatalf("hwm = %d, want %d", got, 16384<<10)
	}
	if _, err := parseStatusHWM("Name:\tx\nVmRSS:\t1 kB\n"); err == nil {
		t.Fatal("status without VmHWM parsed")
	}
	if _, err := parseStatusHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Fatal("VmHWM in an unexpected unit parsed")
	}
}

func TestReadUsageSelf(t *testing.T) {
	u, err := readUsage(os.Getpid())
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	if u.HWMBytes <= 0 {
		t.Fatalf("own peak RSS %d", u.HWMBytes)
	}
}

func TestChildExitIsEarlyUnlessStopped(t *testing.T) {
	g := &procGroup{}
	defer g.shutdown()
	p, err := g.start("true", "/bin/sh", "-c", "echo ready on 127.0.0.1:1; exit 3")
	if err != nil {
		t.Fatal(err)
	}
	<-p.done
	if err := g.alive(); err == nil {
		t.Fatal("a child that exited on its own was not reported")
	}
	q, err := g.start("sleeper", "/bin/sh", "-c", "sleep 60")
	if err != nil {
		t.Fatal(err)
	}
	q.stop()
	if err := q.exitedEarly(); err != nil {
		t.Fatalf("a stopped child reported as early exit: %v", err)
	}
	g.shutdown()
	if _, err := g.start("late", "/bin/sh", "-c", "true"); err == nil {
		t.Fatal("start after shutdown succeeded")
	}
}
