package main

import (
	"fmt"
	"math"
	"time"

	"qens/internal/registry"
)

// tracedData is everything the per-layer metrics are computed from.
type tracedData struct {
	w          workload
	untraced   *phases // qens-gateway child, closed then open loop
	traced     *phases // in-process gateway, closed then open loop
	gatewayPID int
	fleetPIDs  []int
	rec        *recorder
	queryOf    map[string]string // trace id → query id
	before     *gatewayStats     // traced gateway, around the timed loops
	after      *gatewayStats
	ingest0    []ingestHealth // qensd /healthz ingest blocks around the loops
	ingest1    []ingestHealth
	loopTime   time.Duration // wall time of the traced loops
	bytes      int64         // wire bytes moved by the leader's clients during the loops
}

// layerMetrics computes the per-layer table and the attribution
// closure. It returns an error when the closure does not hold, which
// means the seams' records were joined to the wrong requests.
func layerMetrics(d *tracedData) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name, v, unit, note})
	}
	pct := func(name string, xs []float64, q float64, unit string) {
		p, ok := percentile(xs, q)
		if !ok {
			add(name, 0, unit, fmt.Sprintf("unsupported: n=%d", p.N))
			return
		}
		add(name, p.Value, unit, fmt.Sprintf("n=%d", p.N))
	}

	all := append(append([]checked(nil), d.traced.closed...), d.traced.open...)
	n := float64(len(all))
	rpcByQuery := map[string][]rpcCall{}
	var trains []rpcCall
	rpcKinds := map[string]int{}
	rpcErrors := 0
	for _, c := range d.rec.rpcs {
		rpcKinds[c.kind]++
		if c.failed {
			rpcErrors++
		}
		if c.kind == "train" && !c.failed {
			trains = append(trains, c)
			if q, ok := d.queryOf[c.trace]; ok {
				rpcByQuery[q] = append(rpcByQuery[q], c)
			}
		}
	}
	regionByQuery := map[string][]regionCall{}
	var regionMS []float64
	regionCalls := 0
	for _, c := range d.rec.regions {
		regionCalls++
		regionMS = append(regionMS, ms(c.dur))
		if c.kind == "train" {
			regionByQuery[c.query] = append(regionByQuery[c.query], c)
		}
	}

	// Per-request attribution along the blocking path: client time
	// splits into http (client − handler), shaping (handler − elapsed),
	// queue wait, plan (selection), train (the fan-out's wall time at
	// the client seam) and other (the executor's remainder). Each term
	// is summed over all requests, so the six close on the client total
	// once every request is joined to its seam records.
	var (
		client, httpSum, shapingSum, queueSum, otherSum                 float64
		handlerSum, selSum, trainWall, callSum, trainOther, routerOther float64
		queueWaits, execMS, respBytes                                   []float64
		answers, trained, coalesced, unsupported, participants          int
		noHandler, noTrain                                              int
	)
	for _, c := range all {
		respBytes = append(respBytes, float64(c.Bytes))
		cl := ms(c.Latency - c.Lag) // from send, not from due
		h, ok := d.rec.handler[c.ID]
		if !ok {
			noHandler++
			continue
		}
		hm := ms(h)
		client += cl
		handlerSum += hm
		httpSum += cl - hm
		if c.Unsupported {
			unsupported++
		}
		a := c.Answer
		if a == nil {
			shapingSum += hm
			continue
		}
		answers++
		exec := a.ElapsedMS - a.QueueWaitMS
		queueWaits = append(queueWaits, a.QueueWaitMS)
		execMS = append(execMS, exec)
		shapingSum += hm - a.ElapsedMS
		queueSum += a.QueueWaitMS
		switch a.kind() {
		case "coalesced":
			coalesced++
			otherSum += exec
			continue
		case "reused":
			otherSum += exec
			continue
		}
		trained++
		participants += len(a.Participants)
		var wall, calls float64
		if d.w.sharded {
			wall, calls = span(regionByQuery[a.ID])
			routerOther += exec - slowest(regionByQuery[a.ID])
		} else {
			wall, calls = span(rpcByQuery[a.ID])
		}
		if calls == 0 {
			noTrain++
		}
		trainWall += wall
		callSum += calls
		selSum += a.Stats.SelectionMS
		other := exec - a.Stats.SelectionMS - wall
		trainOther += other
		otherSum += other
	}
	if noHandler > 0 || noTrain > 0 {
		return nil, fmt.Errorf("attribution: %d of %d requests lack a handler record, %d of %d trained answers lack train calls",
			noHandler, len(all), noTrain, trained)
	}
	if sum := httpSum + shapingSum + queueSum + selSum + trainWall + otherSum; math.Abs(sum-client) > 1e-6*client {
		return nil, fmt.Errorf("attribution: layers sum to %.3f ms, client total %.3f ms", sum, client)
	}

	// gateway
	add("gateway.handler_ms", ratio(handlerSum, n), "ms", "mean over all requests")
	add("gateway.http_ms", ratio(httpSum, n), "ms", "client − handler")
	add("gateway.shaping_ms", ratio(shapingSum, n), "ms", "handler − queue wait − exec")
	add("gateway.response_bytes", mean(respBytes), "B", "mean body size")
	add("gateway.coalesced_frac", ratio(float64(coalesced), float64(answers)), "ratio", fmt.Sprintf("%d of %d answers", coalesced, answers))
	untracedDone := float64(completed(d.untraced.closed) + completed(d.untraced.open))
	add("gateway.cpu_ms_per_query", ratio(ms(d.untraced.cpuBy[d.gatewayPID]), untracedDone), "ms", "qens-gateway process, untraced loops")
	pct("gateway.queue_wait_p50_ms", queueWaits, 0.5, "ms")
	pct("gateway.queue_wait_p95_ms", queueWaits, 0.95, "ms")

	// plan / selection
	plans0, plans1 := d.before.registryTotals(), d.after.registryTotals()
	plans := float64((plans1.IndexedPlans + plans1.BrutePlans) - (plans0.IndexedPlans + plans0.BrutePlans))
	ranked := float64(plans1.NodesRanked - plans0.NodesRanked)
	pruned := float64(plans1.NodesPruned - plans0.NodesPruned)
	add("plan.ms", ratio(selSum, float64(trained)), "ms", "selection_ms, trained answers")
	add("plan.per_query", ratio(plans, n), "count", "registry plans ÷ requests")
	add("plan.pruned_frac", ratio(pruned, ranked+pruned), "ratio", "roster rows the R-tree spared")
	add("plan.unsupported_frac", ratio(float64(unsupported), n), "ratio", "422 answers ÷ requests")

	// federation executor
	pct("exec.p50_ms", execMS, 0.5, "ms")
	pct("exec.p95_ms", execMS, 0.95, "ms")
	add("exec.train_ms", ratio(trainWall, float64(trained)), "ms", "first train call start → last end, trained answers")
	add("exec.other_ms", ratio(trainOther, float64(trained)), "ms", "exec − selection − train, trained answers")
	add("exec.participants", ratio(float64(participants), float64(trained)), "count", "per trained answer")
	add("exec.fanout_concurrency", ratio(callSum, trainWall), "ratio", "Σ train call time ÷ train_ms")

	// reuse cache
	h0, m0, e0 := d.before.cacheCounts()
	h1, m1, e1 := d.after.cacheCounts()
	add("cache.hit_frac", ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "ratio", fmt.Sprintf("%d hits", h1-h0))
	add("cache.trained_frac", ratio(float64(trained), float64(answers)), "ratio", "trained ÷ answers")
	add("cache.evictions", float64(e1-e0), "count", "during the traced loops")

	// transport (federation.Client seam)
	var rpcMS, wireMS, nodeMS, queueMS, fitMS []float64
	samples, stale := 0, 0
	for _, c := range trains {
		rpcMS = append(rpcMS, ms(c.dur))
		wireMS = append(wireMS, ms(c.dur-c.train))
		nodeMS = append(nodeMS, ms(c.train))
		queueMS = append(queueMS, ms(c.queue))
		fitMS = append(fitMS, ms(c.fit))
		samples += c.samples
		if c.stale {
			stale++
		}
	}
	for _, c := range d.rec.regions {
		for _, r := range c.nodes {
			nodeMS = append(nodeMS, ms(r.TrainTime))
			samples += r.SamplesUsed
		}
	}
	pct("rpc.train_p50_ms", rpcMS, 0.5, "ms")
	pct("rpc.train_p95_ms", rpcMS, 0.95, "ms")
	add("rpc.wire_ms", mean(wireMS), "ms", "train call − node TrainTime")
	add("rpc.train_calls_per_query", ratio(float64(rpcKinds["train"]), n), "count", "")
	add("rpc.summary_calls_per_query", ratio(float64(rpcKinds["summary"]), n), "count", "full and delta summary fetches")
	add("rpc.evaluate_calls_per_query", ratio(float64(rpcKinds["evaluate"]), n), "count", "")
	add("rpc.bytes_per_query", ratio(float64(d.bytes), n), "B", "leader↔node wire bytes, both directions")
	add("rpc.errors", float64(rpcErrors), "count", "")

	// engine (on qensd)
	pct("node.train_p50_ms", nodeMS, 0.5, "ms")
	pct("node.train_p95_ms", nodeMS, 0.95, "ms")
	add("node.queue_ms", mean(queueMS), "ms", "node.queue span")
	add("node.fit_ms", mean(fitMS), "ms", "node.fit span")
	add("node.samples_per_query", ratio(float64(samples), float64(trained)), "count", "per trained answer")
	var fleetCPU time.Duration
	for _, pid := range d.fleetPIDs {
		fleetCPU += d.untraced.cpuBy[pid]
	}
	add("node.cpu_ms_per_query", ratio(ms(fleetCPU), untracedDone), "ms", "fleet processes, untraced loops")

	// registry (deployment totals since the traced gateway started)
	reg := d.after.registryTotals()
	add("registry.push_applied", float64(reg.PushApplied), "count", "since start")
	add("registry.push_dropped_unknown", float64(reg.PushDroppedUnknown), "count", "since start")
	add("registry.pull_refreshes", float64(reg.Refreshes), "count", "since start")
	add("registry.refresh_bytes", float64(reg.DeltaBytes+reg.FullBytes), "B", "since start")
	pct("registry.push_apply_lag_p50_ms", d.rec.lags, 0.5, "ms")
	pct("registry.push_apply_lag_p80_ms", d.rec.lags, 0.8, "ms")
	add("registry.stale_round_frac", ratio(float64(stale), float64(len(trains))), "ratio", "train answers on a newer epoch")

	// ingest (qensd)
	var rows, bumps, full int64
	for i := range d.ingest1 {
		rows += d.ingest1[i].rows() - d.ingest0[i].rows()
		bumps += d.ingest1[i].EpochBumps - d.ingest0[i].EpochBumps
		full += d.ingest1[i].FullRequants - d.ingest0[i].FullRequants
	}
	perNode := 0.0
	if len(d.ingest1) > 0 {
		perNode = float64(rows) / float64(len(d.ingest1)) / d.loopTime.Seconds()
	}
	add("ingest.rows_per_s", perNode, "rows/s", fmt.Sprintf("per node, configured %d when ingesting", ingestRate))
	add("ingest.epoch_bumps", float64(bumps), "count", "during the traced loops")
	add("ingest.full_requants", float64(full), "count", "during the traced loops")

	// region tier
	routed0, pruned0 := d.before.routing()
	routed1, pruned1 := d.after.routing()
	add("region.calls_per_query", ratio(float64(regionCalls), n), "count", "plan, train and info calls")
	pct("region.call_p50_ms", regionMS, 0.5, "ms")
	pct("region.call_p95_ms", regionMS, 0.95, "ms")
	add("region.pruned_frac", ratio(float64(pruned1-pruned0), float64(routed1-routed0+pruned1-pruned0)), "ratio", "regions not routed to")
	add("router.other_ms", ratio(routerOther, float64(trained)), "ms", "root exec − slowest region train call")

	// the load generator and the benchmark itself; the open loop ran
	// against the qens-gateway child, timed from each request's due time
	var lags []float64
	for _, c := range d.untraced.open {
		lags = append(lags, ms(c.Lag))
	}
	rlat := latencies(d.untraced.open)
	pct("loadgen.rate_latency_p50_ms", rlat, 0.5, "ms")
	pct("loadgen.rate_latency_p95_ms", rlat, 0.95, "ms")
	pct("loadgen.lag_p95_ms", lags, 0.95, "ms")
	add("trace.throughput_ratio", ratio(tput(d.traced), tput(d.untraced)), "ratio",
		"traced ÷ untraced closed loop; the traced gateway shares this process with the load generator")
	add("unattributed_frac", ratio(shapingSum+otherSum, client), "ratio",
		fmt.Sprintf("residual terms (shaping + exec other) ÷ client mean %.3f ms", ratio(client, n)))
	return out, nil
}

func tput(p *phases) float64 {
	return ratio(float64(completed(p.closed)), p.closedElapsed.Seconds())
}

// span is the wall time from the first call's start to the last
// call's end, and the calls' summed time, in ms.
func span[C interface{ when() interval }](cs []C) (wall, sum float64) {
	var first, last time.Time
	for i, c := range cs {
		iv := c.when()
		if i == 0 || iv.start.Before(first) {
			first = iv.start
		}
		if end := iv.start.Add(iv.dur); i == 0 || end.After(last) {
			last = end
		}
		sum += ms(iv.dur)
	}
	return ms(last.Sub(first)), sum
}

// slowest is the slowest call's time, in ms.
func slowest(cs []regionCall) float64 {
	m := 0.0
	for _, c := range cs {
		m = max(m, ms(c.dur))
	}
	return m
}

// ingestHealth is the ingest block of a qensd /healthz document.
type ingestHealth struct {
	Buffered     int64 `json:"buffered"`
	Batches      int64 `json:"batches"`
	EpochBumps   int64 `json:"epoch_bumps"`
	FullRequants int64 `json:"full_requants"`
}

// rows is how many rows the node has taken in: every absorbed
// mini-batch plus what waits for the next.
func (h ingestHealth) rows() int64 { return h.Batches*ingestBatch + h.Buffered }

// registryTotals sums the registry counters of the single leader, or of
// every region in a sharded topology.
func (s *gatewayStats) registryTotals() registry.Stats {
	if s.Registry != nil {
		return *s.Registry
	}
	var t registry.Stats
	if s.Router == nil {
		return t
	}
	for _, r := range s.Router.Regions {
		if g := r.Registry; g != nil {
			t.IndexedPlans += g.IndexedPlans
			t.BrutePlans += g.BrutePlans
			t.NodesRanked += g.NodesRanked
			t.NodesPruned += g.NodesPruned
			t.PushApplied += g.PushApplied
			t.PushDroppedUnknown += g.PushDroppedUnknown
			t.Refreshes += g.Refreshes
			t.DeltaBytes += g.DeltaBytes
			t.FullBytes += g.FullBytes
		}
	}
	return t
}

// cacheCounts reads the reuse cache's hits, misses and evictions: the
// gateway's cache, or the root router's.
func (s *gatewayStats) cacheCounts() (hits, misses, evictions int64) {
	switch {
	case s.Reuse != nil:
		return s.Reuse.Hits, s.Reuse.Misses, s.Reuse.Evictions
	case s.Router != nil && s.Router.Reuse != nil:
		return s.Router.Reuse.Hits, s.Router.Reuse.Misses, s.Router.Reuse.Evictions
	}
	return 0, 0, 0
}

// routing sums the root router's per-region routed counts and the
// regions it pruned.
func (s *gatewayStats) routing() (routed, pruned int64) {
	if s.Router == nil {
		return 0, 0
	}
	for _, r := range s.Router.Regions {
		routed += r.Routed
	}
	return routed, s.Router.RegionsPruned
}
