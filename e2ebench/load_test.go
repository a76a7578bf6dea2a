package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a test stalls
// it, so due-time accounting can be checked exactly.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestScheduleChargesStallToLaterRequests(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const rate = 100 // one request due every 10ms
	var dues []time.Time
	lags := schedule(clk, start, rate, 6, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 1 {
			// The generator stalls 35ms while dispatching request 1:
			// requests 2-4 are now late, and request 5 is back on time.
			clk.now = clk.now.Add(35 * time.Millisecond)
		}
	})
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due at %v, want %v (the schedule must not slip)", i, due.Sub(start), want.Sub(start))
		}
	}
	want := []time.Duration{0, 0, 25 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond, 0}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("lag[%d] = %v, want %v", i, lags[i], want[i])
		}
	}

	// A request answered 2ms after it was sent, but sent 25ms late,
	// counts 27ms: latency is taken from the due time.
	sent := dues[2].Add(lags[2])
	done := sent.Add(2 * time.Millisecond)
	if got := done.Sub(dues[2]); got != 27*time.Millisecond {
		t.Errorf("latency from due = %v, want 27ms", got)
	}
}

func TestScheduleIssuesRateTimesDuration(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	n := 0
	schedule(clk, clk.now, 50, 100, func(int, time.Time) { n++ })
	if n != 100 {
		t.Fatalf("dispatched %d, want 100", n)
	}
	if got := clk.now.Sub(time.Unix(0, 0)); got != 1980*time.Millisecond {
		t.Fatalf("last request due at %v, want 1.98s", got)
	}
}
