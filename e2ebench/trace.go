package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"qens/internal/federation"
	"qens/internal/gateway"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/region"
	"qens/internal/telemetry"
	"qens/internal/transport"
)

// parityQueries is the length of the sequential pass both gateways of a
// traced run answer, to show the timing wrappers left the code path
// alone.
const parityQueries = 40

// tracedGateway is the gateway and its leader (or root router)
// assembled inside the benchmark from the constructors qens-gateway's
// main uses, with the timing wrappers at the seams.
type tracedGateway struct {
	rec     *recorder
	tracer  *telemetry.Tracer
	clients []*tracedClient
	regions []*tracedRegion
	gw      *gateway.Server
	srv     *http.Server
	url     string
}

// startTracedGateway mirrors qens-gateway's defaults: 4 workers, queue
// 64, 30s budget, coalescing at IoU 0.95, reuse at IoU 0.9 with cap 32,
// push on, approximate tier off, ε=0.6, top-ℓ=3.
func startTracedGateway(w workload, f *fleetProcs) (_ *tracedGateway, err error) {
	t := &tracedGateway{rec: newRecorder(), tracer: telemetry.NewTracer(nil)}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	t.tracer.SetRetention(1 << 20) // every span of the run, to join train calls to queries
	telemetry.SetDefaultTracer(t.tracer)
	spec := ml.PaperNN(1)
	dial := transport.DialOptions{Timeout: 2 * time.Minute, MaxProto: transport.WireProtoV2}
	cfg := gateway.ServerConfig{
		Workers: 4, QueueDepth: 64, DefaultTimeout: 30 * time.Second, CoalesceIoU: 0.95,
		DefaultEpsilon: 0.6, DefaultTopL: 3, Tracer: t.tracer,
	}
	if w.sharded {
		services := make([]region.Service, 0, len(f.addrs))
		for _, a := range f.addrs {
			ctx, cancel := context.WithTimeout(context.Background(), dial.Timeout)
			rc, err := transport.DialRegion(ctx, a, dial)
			cancel()
			if err != nil {
				return nil, err
			}
			s := &tracedRegion{inner: rc, rec: t.rec}
			t.regions = append(t.regions, s)
			services = append(services, s)
		}
		router, err := region.NewRouter(region.Config{
			Spec: spec, LocalEpochs: localEpochs, Seed: fleetSeed, ReuseIoU: reuseIoU, ReuseCap: 32,
		}, services)
		if err != nil {
			return nil, err
		}
		cfg.Router = router
	} else {
		clients := make([]federation.Client, 0, len(f.addrs))
		for _, a := range f.addrs {
			c, err := transport.Dial(a, dial)
			if err != nil {
				return nil, fmt.Errorf("dial %s: %w", a, err)
			}
			tc := &tracedClient{inner: c, rec: t.rec}
			t.clients = append(t.clients, tc)
			clients = append(clients, tc)
		}
		leader, err := federation.NewLeader(federation.Config{
			Spec: spec, ClusterK: fleetK, LocalEpochs: localEpochs, Seed: fleetSeed,
		}, nil, clients)
		if err != nil {
			return nil, err
		}
		reg := leader.Registry()
		for _, tc := range t.clients {
			tc.reg.Store(reg)
		}
		reg.OnPublish(func(uint64) {
			if snap, ok := reg.Current(); ok {
				t.rec.published(snap)
			}
		})
		ctx, cancel := context.WithTimeout(context.Background(), dial.Timeout)
		n, err := leader.StartPush(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("summary push: %w", err)
		}
		if n != len(t.clients) {
			return nil, fmt.Errorf("summary push from %d of %d nodes: the wrapper lost the push capability", n, len(t.clients))
		}
		cache, err := federation.NewAdaptiveCache(reuseIoU, 32, federation.ApproxConfig{MinCoverage: 0.25, ProbeEvery: 8})
		if err != nil {
			return nil, err
		}
		cfg.Leader, cfg.Cache = leader, cache
	}
	if t.gw, err = gateway.NewServer(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: tracedHandler{next: t.gw.Handler(), rec: t.rec}, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = t.srv.Serve(ln) }() // returns once close shuts the server down
	return t, nil
}

// wireBytes is the bytes the leader's clients have moved, both ways.
func (t *tracedGateway) wireBytes() int64 {
	var n int64
	for _, c := range t.clients {
		out, in := c.inner.BytesMoved()
		n += out + in
	}
	return n
}

// queryOf maps every retained trace id to its query id.
func (t *tracedGateway) queryOf() map[string]string {
	out := map[string]string{}
	for _, sp := range t.tracer.Spans() {
		if sp.ParentID == "" && sp.Attrs["query"] != "" {
			out[sp.TraceID] = sp.Attrs["query"]
		}
	}
	return out
}

// close stops the gateway and its server and closes every connection
// to the fleet.
func (t *tracedGateway) close() {
	if t.gw != nil {
		t.gw.Close()
	}
	if t.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = t.srv.Shutdown(ctx) // the run is over; a slow close only delays exit
		cancel()
	}
	for _, c := range t.clients {
		c.inner.Close()
	}
	for _, r := range t.regions {
		r.inner.Close()
	}
}

// parity is what a sequential pass over the same requests must
// reproduce on both gateways.
type parity struct {
	outcomes     []string // per request: status, served kind and participant set
	planPerQuery float64
}

// parityPass answers rects one at a time and records each outcome.
func parityPass(ctx context.Context, c *client, chk *checker, prefix string, rects []geometry.Rect) (*parity, []checked, error) {
	var before gatewayStats
	if err := c.getJSON(ctx, "/v1/stats", &before); err != nil {
		return nil, nil, err
	}
	ss, err := sequential(ctx, c, prepare(prefix, rects))
	if err != nil {
		return nil, nil, err
	}
	cs := chk.checkAll(ss, rects)
	var after gatewayStats
	if err := c.getJSON(ctx, "/v1/stats", &after); err != nil {
		return nil, nil, err
	}
	p := &parity{}
	for _, cr := range cs {
		o := fmt.Sprintf("%d", cr.Status)
		if a := cr.Answer; a != nil {
			o += " " + a.kind() + " " + strings.Join(a.nodeSet(), ",")
		}
		p.outcomes = append(p.outcomes, o)
	}
	r0, r1 := before.registryTotals(), after.registryTotals()
	p.planPerQuery = ratio(float64(r1.IndexedPlans+r1.BrutePlans-r0.IndexedPlans-r0.BrutePlans), float64(len(rects)))
	return p, cs, nil
}

// diff lists where the traced pass departs from the untraced one.
func (p *parity) diff(traced *parity) []string {
	var out []string
	for i := range p.outcomes {
		if i < len(traced.outcomes) && p.outcomes[i] != traced.outcomes[i] {
			out = append(out, fmt.Sprintf("parity request %d: untraced %q, traced %q", i, p.outcomes[i], traced.outcomes[i]))
		}
	}
	if p.planPerQuery != traced.planPerQuery {
		out = append(out, fmt.Sprintf("parity: %.3f plans per query untraced, %.3f traced", p.planPerQuery, traced.planPerQuery))
	}
	return out
}

// runTraced is a --trace 1 run. The fleet daemons start once. A
// qens-gateway child serves the untraced part: warm-up, the parity
// pass, a closed loop (a fifth of the measured time) and the open loop
// (two fifths). Then the gateway is rebuilt inside this process with
// timing wrappers at its seams over the same daemons, and serves the
// same warm-up and parity pass, a closed and an open loop (a fifth
// each). The per-layer metrics come from the traced loops, the
// open-loop latencies from the untraced one.
func runTraced(ctx context.Context, g *procGroup, bin string, w workload, seed uint64, measure time.Duration) (*report, error) {
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	f, err := startFleet(g, bin, w, true)
	if err != nil {
		return nil, err
	}
	gwProc, err := g.start("qens-gateway", filepath.Join(bin, "qens-gateway"), gatewayArgs(w, f)...)
	if err != nil {
		return nil, err
	}
	url, err := gwProc.await(gatewayAddr, announceTimeout)
	if err != nil {
		return nil, err
	}
	uc := newClient(url)
	defer uc.close()
	st, err := awaitReady(ctx, uc, g.alive)
	if err != nil {
		return nil, err
	}
	fifth := measure / 5
	in, err := makeInputs(w, o, *st.Space, seed, w.closedCap(fifth), int(w.rate*(2*fifth).Seconds()), parityQueries)
	if err != nil {
		return nil, err
	}
	chk := newChecker(w, o, st.Nodes)
	rep := &report{}

	// Untraced part.
	if err := warm(ctx, uc, chk, "w", in.warm); err != nil {
		return nil, err
	}
	uPar, uParChecked, err := parityPass(ctx, uc, chk, "p", in.parity)
	if err != nil {
		return nil, err
	}
	fleetPIDs := make([]int, len(f.procs))
	for i, p := range f.procs {
		fleetPIDs[i] = p.cmd.Process.Pid
	}
	gwPID := gwProc.cmd.Process.Pid
	untraced, err := runPhases(ctx, uc, w, in, chk, "u", fifth, 2*fifth, append([]int{gwPID}, fleetPIDs...), g.alive)
	if err != nil {
		return nil, err
	}
	var uEnd gatewayStats
	if err := uc.getJSON(ctx, "/v1/stats", &uEnd); err != nil {
		return nil, err
	}
	gwProc.stop()

	// Traced part, over the same daemons.
	tg, err := startTracedGateway(w, f)
	if err != nil {
		return nil, err
	}
	defer tg.close()
	tc := newClient(tg.url)
	defer tc.close()
	if _, err := awaitReady(ctx, tc, g.alive); err != nil {
		return nil, err
	}
	if err := warm(ctx, tc, chk, "w", in.warm); err != nil {
		return nil, err
	}
	tPar, tParChecked, err := parityPass(ctx, tc, chk, "p", in.parity)
	if err != nil {
		return nil, err
	}
	d := &tracedData{w: w, untraced: untraced, gatewayPID: gwPID, fleetPIDs: fleetPIDs, rec: tg.rec}
	d.before = &gatewayStats{}
	if err := tc.getJSON(ctx, "/v1/stats", d.before); err != nil {
		return nil, err
	}
	if d.ingest0, err = readIngest(ctx, uc, f.metrics); err != nil {
		return nil, err
	}
	bytes0, t0 := tg.wireBytes(), time.Now()
	tg.rec.on.Store(true)
	traced, err := runPhases(ctx, tc, w, in, chk, "t", fifth, fifth, fleetPIDs, g.alive)
	tg.rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	d.traced, d.loopTime, d.bytes = traced, time.Since(t0), tg.wireBytes()-bytes0
	if d.ingest1, err = readIngest(ctx, uc, f.metrics); err != nil {
		return nil, err
	}
	d.after = &gatewayStats{}
	if err := tc.getJSON(ctx, "/v1/stats", d.after); err != nil {
		return nil, err
	}
	d.queryOf = tg.queryOf()

	for _, cs := range [][]checked{uParChecked, untraced.closed, untraced.open, tParChecked, traced.closed, traced.open} {
		rep.tally(cs)
	}
	// Parity: the wrappers must not change what is served. With
	// ingestion the fleet changes between the passes, so there only
	// the freshness path itself must be live on both sides.
	var mismatch []string
	if w.ingest {
		if uEnd.registryTotals().PushApplied == 0 || d.after.registryTotals().PushApplied == 0 {
			mismatch = append(mismatch, fmt.Sprintf("parity: push_applied %d untraced, %d traced; both must be > 0",
				uEnd.registryTotals().PushApplied, d.after.registryTotals().PushApplied))
		}
	} else {
		mismatch = uPar.diff(tPar)
	}
	if len(mismatch) > 0 {
		rep.correct = false
		rep.problems = append(rep.problems, mismatch...)
	}
	if rep.metrics, err = layerMetrics(d); err != nil {
		return nil, err
	}
	return rep, nil
}

// readIngest reads the ingest block of every qensd /healthz.
func readIngest(ctx context.Context, c *client, addrs []string) ([]ingestHealth, error) {
	out := make([]ingestHealth, len(addrs))
	for i, a := range addrs {
		var doc struct {
			Ingest ingestHealth `json:"ingest"`
		}
		hc := &client{url: "http://" + a, http: c.http}
		if err := hc.getJSON(ctx, "/healthz", &doc); err != nil {
			return nil, err
		}
		out[i] = doc.Ingest
	}
	return out, nil
}
