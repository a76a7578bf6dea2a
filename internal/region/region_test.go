package region

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// slabs lays the test fleet out as disjoint x ranges: three nodes on
// the left half of the space, three on the right, so a 2-way partition
// splits cleanly and left-only queries route to one region.
var slabs = [][2]float64{{0, 10}, {12, 22}, {24, 34}, {40, 50}, {52, 62}, {64, 74}}

func lineData(n int, slope, intercept, lo, hi float64, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		x := src.Uniform(lo, hi)
		d.MustAppend([]float64{x, slope*x + intercept + src.Normal(0, 0.3)})
	}
	return d
}

func fedConfig() federation.Config {
	return federation.Config{Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 3, Seed: 42}
}

// buildNodes constructs the test fleet. Node i's data and RNG seeds
// depend only on i, so independently built fleets (single-leader vs
// sharded) are bit-identical.
func buildNodes(t testing.TB) []*federation.Node {
	t.Helper()
	nodes := make([]*federation.Node, len(slabs))
	for i, s := range slabs {
		d := lineData(200, 2, 1, s[0], s[1], 10+uint64(i))
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i), d, 3, rng.New(1000+uint64(i)))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
	}
	return nodes
}

func singleFixture(t testing.TB) *federation.Leader {
	t.Helper()
	nodes := buildNodes(t)
	clients := make([]federation.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = federation.LocalClient{Node: n}
	}
	lead, err := federation.NewLeader(fedConfig(), nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	return lead
}

// shardedFixture builds the same fleet split into `regions` spatial
// shards under a root Router. Returns the router, the regional leaders
// and the raw nodes (for drift injection).
func shardedFixture(t testing.TB, regions int, rcfg Config) (*Router, []*Leader, []*federation.Node) {
	t.Helper()
	nodes := buildNodes(t)
	summaries := make([]cluster.NodeSummary, len(nodes))
	rosterIndex := make(map[string]int, len(nodes))
	for i, n := range nodes {
		summaries[i] = n.Summary()
		rosterIndex[n.ID()] = i
	}
	shards, err := Partition(summaries, regions)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedConfig()
	var services []Service
	var leaders []*Leader
	for r, shard := range shards {
		clients := make([]federation.Client, 0, len(shard))
		for _, idx := range shard {
			clients = append(clients, federation.LocalClient{Node: nodes[idx]})
		}
		fed, err := federation.NewLeader(cfg, nil, clients)
		if err != nil {
			t.Fatal(err)
		}
		lead, err := NewLeader(fmt.Sprintf("region-%d", r), fed, rosterIndex)
		if err != nil {
			t.Fatal(err)
		}
		leaders = append(leaders, lead)
		services = append(services, lead)
	}
	if rcfg.Spec.Kind == "" {
		rcfg = Config{Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed}
	}
	router, err := NewRouter(rcfg, services)
	if err != nil {
		t.Fatal(err)
	}
	return router, leaders, nodes
}

// mustQuery builds a 2-D query rectangle. Eq. 2 scores support as the
// per-dimension mean, so routing and no-candidate behaviour depend on
// BOTH the x and y windows: a region is pruned only when the query is
// disjoint from its covering rect in every dimension.
func mustQuery(t testing.TB, id string, xlo, xhi, ylo, yhi float64) query.Query {
	t.Helper()
	q, err := query.New(id, geometry.MustRect([]float64{xlo, ylo}, []float64{xhi, yhi}))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPartitionSplitsBySpatialOrder(t *testing.T) {
	// Deliberately scrambled input order: partition must still cut the
	// fleet into contiguous slabs of the center-sorted order.
	order := []int{3, 0, 5, 1, 4, 2}
	summaries := make([]cluster.NodeSummary, len(order))
	for i, o := range order {
		lo := slabs[o][0]
		summaries[i] = cluster.NodeSummary{
			NodeID: fmt.Sprintf("node-%d", o),
			Clusters: []cluster.Summary{{
				Bounds:   geometry.MustRect([]float64{lo, 0}, []float64{slabs[o][1], 1}),
				Centroid: []float64{lo, 0.5},
				Size:     10,
			}},
			TotalSamples: 10,
		}
	}
	shards, err := Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || len(shards[0]) != 3 || len(shards[1]) != 3 {
		t.Fatalf("shard sizes: %v", shards)
	}
	left := map[string]bool{}
	for _, idx := range shards[0] {
		left[summaries[idx].NodeID] = true
	}
	for _, want := range []string{"node-0", "node-1", "node-2"} {
		if !left[want] {
			t.Fatalf("left shard %v missing %s", shards[0], want)
		}
	}
	// Same input, same split.
	again, err := Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := range shards {
		for i := range shards[r] {
			if shards[r][i] != again[r][i] {
				t.Fatalf("partition not deterministic: %v vs %v", shards, again)
			}
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	summaries := []cluster.NodeSummary{{
		NodeID: "n",
		Clusters: []cluster.Summary{{
			Bounds:   geometry.MustRect([]float64{0, 0}, []float64{1, 1}),
			Centroid: []float64{0.5, 0.5},
			Size:     1,
		}},
		TotalSamples: 1,
	}}
	if _, err := Partition(summaries, 0); err == nil {
		t.Fatal("accepted 0 regions")
	}
	if _, err := Partition(summaries, 2); err == nil {
		t.Fatal("accepted more regions than nodes")
	}
	if _, err := Partition([]cluster.NodeSummary{{NodeID: "bad"}}, 1); err == nil {
		t.Fatal("accepted invalid summary")
	}
}

func TestLeaderInfo(t *testing.T) {
	_, leaders, _ := shardedFixture(t, 2, Config{})
	info, err := leaders[0].Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.RegionID != "region-0" {
		t.Fatalf("region id %q", info.RegionID)
	}
	if len(info.Nodes) != 3 {
		t.Fatalf("%d members", len(info.Nodes))
	}
	for i, n := range info.Nodes {
		want := fmt.Sprintf("node-%d", i)
		if n.NodeID != want || n.RosterIndex != i {
			t.Fatalf("member %d = %+v, want %s@%d", i, n, want, i)
		}
	}
	if info.Epoch == 0 || info.Dims != 2 || info.TotalSamples <= 0 {
		t.Fatalf("info = %+v", info)
	}
	// Covering rect spans the left slabs and excludes the right ones.
	if info.Bounds.Min[0] > slabs[0][0]+1 || info.Bounds.Max[0] < slabs[2][1]-1 {
		t.Fatalf("bounds %v do not cover left slabs", info.Bounds)
	}
	if info.Bounds.Max[0] >= slabs[3][0] {
		t.Fatalf("bounds %v bleed into the right shard", info.Bounds)
	}
}

func TestLeaderTrainValidation(t *testing.T) {
	_, leaders, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	spec := ml.PaperLR(1)
	spec.Seed = 7
	m, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaders[0].Train(ctx, TrainRequest{Spec: spec, Params: m.Params()}); err == nil {
		t.Fatal("accepted empty participants")
	}
	req := TrainRequest{
		Spec:         spec,
		Params:       m.Params(),
		Participants: []selection.Participant{{NodeID: "node-5", Rank: 1}},
		LocalEpochs:  1,
	}
	if _, err := leaders[0].Train(ctx, req); err == nil {
		t.Fatal("accepted participant from another shard")
	}
	req.Participants = []selection.Participant{{NodeID: "node-0", Rank: 1}}
	resp, err := leaders[0].Train(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Err != "" || len(resp.Results[0].Params.Values) == 0 {
		t.Fatalf("round result %+v", resp.Results)
	}
	if resp.Epoch == 0 {
		t.Fatal("train response missing epoch")
	}
}

func TestRouterRoutesQueryDrivenToOverlappingRegion(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	res, kind, err := router.ExecuteQuery(ctx, mustQuery(t, "q-left", 1, 20, -500, 75),
		selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, federation.ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if kind.Reused() {
		t.Fatal("first execution reported reuse")
	}
	if len(res.Participants) != 2 || res.Ensemble == nil {
		t.Fatalf("result %+v", res)
	}
	for _, p := range res.Participants {
		if p.NodeID != "node-0" && p.NodeID != "node-1" && p.NodeID != "node-2" {
			t.Fatalf("selected %s outside the overlapping region", p.NodeID)
		}
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions[0].Routed != 1 || st.Regions[1].Routed != 0 {
		t.Fatalf("routed counts %+v", st.Regions)
	}
	if st.Queries != 1 {
		t.Fatalf("queries %d", st.Queries)
	}
}

func TestRouterZeroOverlapIsNoCandidates(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	_, _, err := router.ExecuteQuery(context.Background(), mustQuery(t, "q-miss", 500, 600, 2000, 3000),
		selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, federation.ModelAveraging)
	if !errors.Is(err, selection.ErrNoCandidates) {
		t.Fatalf("zero-overlap error = %v, want ErrNoCandidates", err)
	}
	st, err := router.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.NoRoute != 1 {
		t.Fatalf("no-route count %d", st.NoRoute)
	}
}

func TestRouterAllNodesFansOutEverywhere(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	res, _, err := router.ExecuteQuery(ctx, mustQuery(t, "q-left-all", 1, 8, -500, 75),
		selection.AllNodes{}, federation.ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Participants) != len(slabs) {
		t.Fatalf("all-nodes selected %d of %d", len(res.Participants), len(slabs))
	}
	st, _ := router.Stats(ctx)
	if st.Regions[0].Routed != 1 || st.Regions[1].Routed != 1 {
		t.Fatalf("routed counts %+v", st.Regions)
	}
}

func TestRouterSpanningRectFansOutEverywhere(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	_, _, err := router.ExecuteQuery(ctx, mustQuery(t, "q-span", -100, 1000, -1000, 1000),
		selection.QueryDriven{Epsilon: 1e-9, TopL: 4}, federation.ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := router.Stats(ctx)
	if st.Regions[0].Routed != 1 || st.Regions[1].Routed != 1 {
		t.Fatalf("routed counts %+v", st.Regions)
	}
	if st.Spanning == 0 {
		t.Fatal("spanning fan-out not counted")
	}
}

func TestRouterStatsAndFleetReport(t *testing.T) {
	router, _, _ := shardedFixture(t, 2, Config{})
	ctx := context.Background()
	ids, err := router.NodeIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(slabs) {
		t.Fatalf("roster %v", ids)
	}
	for i, id := range ids {
		if id != fmt.Sprintf("node-%d", i) {
			t.Fatalf("roster out of order: %v", ids)
		}
	}
	space, err := router.Space(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if space.Min[0] > 1 || space.Max[0] < slabs[len(slabs)-1][1]-1 {
		t.Fatalf("space %v", space)
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation == 0 || len(st.Regions) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Regions[0].Nodes != 3 || st.Regions[1].Nodes != 3 {
		t.Fatalf("shard sizes %+v", st.Regions)
	}
	reports, err := router.FleetReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d region reports", len(reports))
	}
	for _, rep := range reports {
		if len(rep.Health) != 3 || rep.Registry.Epoch == 0 {
			t.Fatalf("region report %+v", rep)
		}
	}
}

func TestRouterRejectsBadTopologies(t *testing.T) {
	if _, err := NewRouter(Config{Spec: ml.PaperLR(1), Seed: 1}, nil); err == nil {
		t.Fatal("accepted zero regions")
	}
	_, leaders, _ := shardedFixture(t, 2, Config{})
	if _, err := NewRouter(Config{Spec: ml.PaperLR(1), Seed: 1},
		[]Service{leaders[0], leaders[0]}); err == nil {
		t.Fatal("accepted duplicate region ids")
	}
	if _, err := NewRouter(Config{Spec: ml.Spec{Kind: "nope"}, Seed: 1},
		[]Service{leaders[0]}); err == nil {
		t.Fatal("accepted invalid spec")
	}
}
