package main

import (
	"context"
	"fmt"
	"time"

	"qens/internal/geometry"
)

// closedCap bounds how many requests one closed-loop phase may send:
// generously above each mix's throughput, so running out is an error
// worth seeing rather than a limit on the measurement.
func (w workload) closedCap(d time.Duration) int {
	qps := 600.0
	if w.repeat {
		qps = 20000
	}
	return int(qps * d.Seconds())
}

// prepare encodes a rectangle list as requests named prefix-<index>.
func prepare(prefix string, rects []geometry.Rect) []prepared {
	out := make([]prepared, len(rects))
	for i, r := range rects {
		id := fmt.Sprintf("%s-%d", prefix, i)
		out[i] = prepared{ID: id, Body: encodeQuery(id, r)}
	}
	return out
}

// checkAll checks answers to requests drawn from rects.
func (c *checker) checkAll(ss []sample, rects []geometry.Rect) []checked {
	out := make([]checked, len(ss))
	for i, s := range ss {
		out[i] = c.check(s, rects[s.Idx])
	}
	return out
}

// warm sends the warm-up requests one at a time; any failure aborts
// the run, since timing a broken deployment measures nothing.
func warm(ctx context.Context, c *client, chk *checker, prefix string, rects []geometry.Rect) error {
	ss, err := sequential(ctx, c, prepare(prefix, rects))
	if err != nil {
		return err
	}
	for _, cr := range chk.checkAll(ss, rects) {
		if cr.Problem != "" {
			return fmt.Errorf("warm-up request %d: %s", cr.Idx, cr.Problem)
		}
	}
	return nil
}

// phases is one deployment's timed closed and open loops.
type phases struct {
	closed, open  []checked
	closedElapsed time.Duration
	cpu           time.Duration         // CPU of the measured processes while the loops ran
	probe         []time.Duration       // the probe's timings while the closed loop ran
	cpuBy         map[int]time.Duration // the same, per process id
	hwm           int64                 // their summed peak RSS, bytes
}

// chunk bounds one stretch of a timed loop. Answers are kept raw while
// a stretch runs, so checking them takes no CPU from the system under
// test, and checked between stretches, which bounds the memory the raw
// answers of a fast workload take.
const chunk = 2 * time.Second

// runPhases times the closed loop (2 clients for closedDur) and then
// the open loop (the workload's rate for openDur; 0 skips it), in
// stretches of at most chunk. The measured processes' CPU is read
// around each stretch, their peak RSS at the end.
func runPhases(ctx context.Context, c *client, w workload, in *inputs, chk *checker, prefix string,
	closedDur, openDur time.Duration, pids []int, alive func() error) (*phases, error) {
	ph := &phases{cpuBy: map[int]time.Duration{}}
	closedReqs := prepare(prefix+"c", in.closed)
	openReqs := prepare(prefix+"o", in.open)
	// stretch runs one loop stretch over reqs[from:] and returns its
	// samples, re-indexed into reqs.
	stretch := func(open bool, reqs []prepared, from int, d time.Duration) ([]sample, error) {
		before, err := usageOf(pids)
		if err != nil {
			return nil, err
		}
		var ss []sample
		if open {
			ss, err = openLoop(ctx, c, reqs[from:], w.rate, d)
		} else {
			var el time.Duration
			p := startProbe()
			ss, el, err = closedLoop(ctx, c, reqs[from:], 2, d)
			ph.probe = append(ph.probe, p.finish()...)
			ph.closedElapsed += el
		}
		if err != nil {
			return nil, err
		}
		after, err := usageOf(pids)
		if err != nil {
			return nil, err
		}
		for pid, u := range after {
			ph.cpuBy[pid] += u.CPU - before[pid].CPU
			ph.cpu += u.CPU - before[pid].CPU
		}
		for i := range ss {
			ss[i].Idx += from
		}
		return ss, nil
	}
	for _, loop := range []struct {
		open  bool
		dur   time.Duration
		reqs  []prepared
		rects []geometry.Rect
		out   *[]checked
	}{
		{false, closedDur, closedReqs, in.closed, &ph.closed},
		{true, openDur, openReqs, in.open, &ph.open},
	} {
		for left := loop.dur; left > 0; left -= chunk {
			ss, err := stretch(loop.open, loop.reqs, len(*loop.out), min(left, chunk))
			if err != nil {
				return nil, err
			}
			*loop.out = append(*loop.out, chk.checkAll(ss, loop.rects)...)
		}
	}
	if err := alive(); err != nil {
		return nil, err
	}
	end, err := usageOf(pids)
	if err != nil {
		return nil, err
	}
	for _, u := range end {
		ph.hwm += u.HWMBytes
	}
	return ph, nil
}

func newChecker(w workload, o *oracle, roster []string) *checker {
	c := &checker{o: o, roster: map[string]bool{}, exact: !w.repeat && !w.ingest && !w.sharded, static: w.repeat}
	for _, id := range roster {
		c.roster[id] = true
	}
	return c
}

// deployments is how many times a --trace 0 run deploys the system.
// Each deployment's set-up is timed and it serves an equal share of
// the closed loop. A run pools all of them, which averages out how any
// one deployment happens to land on the host's CPUs; setup_s is the
// median set-up.
const deployments = 4

// runUntraced is a --trace 0 run: deployments × (set-up, warm-up, a
// share of the closed loop), then the answer checks and the quality
// score over the pooled requests. Every time it reports is scaled to
// the reference host by the probe's timings (probe.go); the table
// shows the times as measured beside them. The open loop is not part
// of it: on a 2-core host shared with other tenants, a stall backs
// up every request due during it, and its latencies spread by a
// quarter or more between runs, too much to gate on; --trace 1 reports
// them.
func runUntraced(ctx context.Context, g *procGroup, bin string, w workload, seed uint64, measure time.Duration) (*report, error) {
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	seg := measure / deployments
	nClosed := w.closedCap(seg)
	var (
		in     *inputs
		setups []float64
		pool   phases
	)
	for r := 0; r < deployments; r++ {
		d, err := deploy(ctx, g, bin, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		if in == nil {
			if in, err = makeInputs(w, o, *d.stats.Space, seed, deployments*nClosed, 0, 0); err != nil {
				return nil, err
			}
		}
		part := &inputs{
			warm:   in.warm,
			closed: in.closed[r*nClosed : (r+1)*nClosed],
		}
		chk := newChecker(w, o, d.stats.Nodes)
		err = warm(ctx, d.client, chk, "w", part.warm)
		var ph *phases
		if err == nil {
			ph, err = runPhases(ctx, d.client, w, part, chk, fmt.Sprint(r), seg, 0, g.pids(), g.alive)
		}
		d.client.close()
		g.stopAll()
		if err != nil {
			return nil, err
		}
		for i := range ph.closed {
			ph.closed[i].Idx += r * nClosed
		}
		pool.closed = append(pool.closed, ph.closed...)
		pool.closedElapsed += ph.closedElapsed
		pool.cpu += ph.cpu
		pool.probe = append(pool.probe, ph.probe...)
		pool.hwm = max(pool.hwm, ph.hwm)
	}

	rep := &report{}
	rep.tally(pool.closed)
	done := completed(pool.closed)
	mse, nMSE, err := answerMSE(o, pool.closed, in.closed)
	if err != nil {
		return nil, err
	}
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name, v, unit, note})
	}
	// Times on the reference host (see probe.go): each measured time
	// divided by how much slower than that host the probe ran.
	f := hostFactor(pool.probe)
	fmt.Printf("  host factor %.4f: over %d probe timings, %.3f ms each on the reference host\n",
		f, len(pool.probe), ms(probeReference))
	lat := latencies(pool.closed)
	ref := make([]float64, len(lat))
	for i, l := range lat {
		ref[i] = l / f
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p95_ms", 0.95}} {
		v, err := mustPercentile(p.name, ref, p.q)
		if err != nil {
			return nil, err
		}
		raw, _ := percentile(lat, p.q)
		add(p.name, v, "ms", fmt.Sprintf("n=%d; %.2f as measured", len(lat), raw.Value))
	}
	add("throughput_qps", ratio(float64(done), pool.closedElapsed.Seconds()/f), "1/s",
		fmt.Sprintf("%d completed in %.2fs (%.1f/s as measured), 2 clients", done, pool.closedElapsed.Seconds(),
			ratio(float64(done), pool.closedElapsed.Seconds())))
	add("answer_mse", mse, "mse", fmt.Sprintf("over %d answers", nMSE))
	add("cpu_ms_per_query", ratio(ms(pool.cpu)/f, float64(done)), "ms",
		fmt.Sprintf("%.2f CPU-s over %d completed (%.2f ms as measured)", pool.cpu.Seconds(), done, ratio(ms(pool.cpu), float64(done))))
	add("peak_rss_mb", float64(pool.hwm)/(1<<20), "MiB", "largest summed VmHWM of one deployment")
	add("setup_s", median(setups)/f, "s", fmt.Sprintf("median of %d set-ups %.3f as measured", len(setups), setups))
	rep.metrics = out
	return rep, nil
}
