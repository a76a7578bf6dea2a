package main

import (
	"testing"
	"time"
)

func TestHostFactorTrimmedMean(t *testing.T) {
	// Ten timings: the fastest and the slowest are dropped, and the
	// mean of the other eight is 1.5 × probeReference.
	r := probeReference
	ts := []time.Duration{r / 10, r, r, r, r, 2 * r, 2 * r, 2 * r, 2 * r, 50 * r}
	if got := hostFactor(ts); got != 1.5 {
		t.Fatalf("hostFactor = %v, want 1.5", got)
	}
	if got := hostFactor(nil); got != 1 {
		t.Fatalf("hostFactor(nil) = %v, want 1", got)
	}
}

func TestProbeTimesTheSameWork(t *testing.T) {
	// The reference computation depends only on its seed, so the probe
	// times the same work whatever the host's speed.
	n := newRefNet()
	if a, b := n.train(3), n.train(3); a != b {
		t.Fatalf("train differs between runs: %v, %v", a, b)
	}
	p := startProbe()
	time.Sleep(5 * probeEvery)
	ts := p.finish()
	if len(ts) == 0 {
		t.Fatal("the probe took no timings")
	}
	for _, d := range ts {
		if d <= 0 {
			t.Fatalf("probe timing %v", d)
		}
	}
}
