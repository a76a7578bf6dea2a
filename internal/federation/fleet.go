package federation

import (
	"fmt"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
)

// Fleet bundles a leader with its in-process participant nodes plus
// the held-out test split used for scoring — the simulated edge
// environment every experiment runs on.
type Fleet struct {
	Leader *Leader
	Nodes  []*Node
	// Test is the union of every node's held-out split; per-query
	// evaluation filters it to the query rectangle.
	Test *dataset.Dataset
}

// FleetOptions controls fleet construction.
type FleetOptions struct {
	// TestFraction is held out of every node's data for evaluation
	// (default 0.2).
	TestFraction float64
	// LeaderDataIndex selects which node's training split doubles
	// as the leader's local data for the §II pre-test (default 0).
	LeaderDataIndex int
}

// NewSimulatedFleet builds nodes node-0..node-(n-1) from the given
// datasets, holds out a test fraction from each, and wires them to a
// leader via in-process clients.
func NewSimulatedFleet(data []*dataset.Dataset, cfg Config, opts FleetOptions) (*Fleet, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("federation: fleet needs at least one dataset")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.TestFraction == 0 {
		opts.TestFraction = 0.2
	}
	if opts.TestFraction < 0 || opts.TestFraction >= 1 {
		return nil, fmt.Errorf("federation: test fraction %v outside [0,1)", opts.TestFraction)
	}
	if opts.LeaderDataIndex < 0 || opts.LeaderDataIndex >= len(data) {
		return nil, fmt.Errorf("federation: leader data index %d out of range", opts.LeaderDataIndex)
	}

	root := rng.New(cfg.Seed)
	test := data[0].Empty()
	nodes := make([]*Node, len(data))
	clients := make([]Client, len(data))
	var leaderData *dataset.Dataset
	for i, d := range data {
		if !data[0].SameSchema(d) {
			return nil, fmt.Errorf("federation: dataset %d has a different schema", i)
		}
		train, held := d.Split(opts.TestFraction, root.Split())
		if err := test.Merge(held); err != nil {
			return nil, err
		}
		node, err := NewNode(fmt.Sprintf("node-%d", i), train, cfg.ClusterK, root.Split())
		if err != nil {
			return nil, err
		}
		nodes[i] = node
		clients[i] = LocalClient{Node: node}
		if i == opts.LeaderDataIndex {
			leaderData = train
		}
	}
	leader, err := NewLeader(cfg, leaderData, clients)
	if err != nil {
		return nil, err
	}
	return &Fleet{Leader: leader, Nodes: nodes, Test: test}, nil
}

// Space returns the global data space: the union of all node bounds,
// used to draw the query workload.
func (f *Fleet) Space() (geometry.Rect, error) {
	summaries, err := f.Leader.Summaries()
	if err != nil {
		return geometry.Rect{}, err
	}
	bounds := make([]geometry.Rect, 0, len(summaries))
	for _, s := range summaries {
		node := s.Clusters[0].Bounds.Clone()
		for _, c := range s.Clusters[1:] {
			node = node.Union(c.Bounds)
		}
		bounds = append(bounds, node)
	}
	return query.GlobalSpace(bounds)
}
