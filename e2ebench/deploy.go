package main

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"qens/internal/geometry"
	"qens/internal/registry"
)

// announceTimeout bounds how long a daemon may take to start serving.
const announceTimeout = 60 * time.Second

var (
	qensdAddr    = regexp.MustCompile(`^qensd: node \S+ serving .* on (\S+)$`)
	qensdMetrics = regexp.MustCompile(`^qensd: observability on http://(\S+) `)
	regionAddr   = regexp.MustCompile(`^qens-region: \S+ serving shard .* on (\S+)$`)
	gatewayAddr  = regexp.MustCompile(`^qens-gateway: .* on (http://\S+) `)
)

// fleetProcs is the started fleet: qensd daemons, or qens-region
// daemons for a sharded workload.
type fleetProcs struct {
	procs   []*proc
	addrs   []string // RPC addresses, in roster order
	metrics []string // qensd observability addresses (when asked for)
}

// startFleet launches the fleet's daemons on kernel-assigned ports and
// waits until each one serves. qensd quantizes its shard before it
// announces its address.
func startFleet(g *procGroup, bin string, w workload, withMetrics bool) (*fleetProcs, error) {
	f := &fleetProcs{}
	common := []string{
		"-addr", "127.0.0.1:0", "-nodes", strconv.Itoa(fleetNodes), "-samples", strconv.Itoa(fleetSamples),
		"-k", strconv.Itoa(fleetK), "-seed", strconv.Itoa(fleetSeed),
	}
	n, exe, re := fleetNodes, "qensd", qensdAddr
	if w.sharded {
		n, exe, re = regions, "qens-region", regionAddr
	}
	for i := 0; i < n; i++ {
		args := append([]string(nil), common...)
		if w.sharded {
			args = append(args, "-region", strconv.Itoa(i), "-regions", strconv.Itoa(regions),
				"-epochs", strconv.Itoa(localEpochs), "-model", fleetModel)
		} else {
			args = append(args, "-synthetic", strconv.Itoa(i), "-id", fmt.Sprintf("node-%d", i))
			if w.ingest {
				args = append(args, "-ingest-rate", strconv.Itoa(ingestRate), "-ingest-batch", strconv.Itoa(ingestBatch))
			}
			if withMetrics {
				args = append(args, "-metrics-addr", "127.0.0.1:0")
			}
		}
		p, err := g.start(fmt.Sprintf("%s[%d]", exe, i), filepath.Join(bin, exe), args...)
		if err != nil {
			return nil, err
		}
		f.procs = append(f.procs, p)
	}
	for _, p := range f.procs {
		addr, err := p.await(re, announceTimeout)
		if err != nil {
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
		if withMetrics && !w.sharded {
			m, err := p.await(qensdMetrics, announceTimeout)
			if err != nil {
				return nil, err
			}
			f.metrics = append(f.metrics, m)
		}
	}
	return f, nil
}

// gatewayArgs is the qens-gateway command line over the fleet: default
// serving flags (4 workers, reuse IoU 0.9 with cap 32, push on,
// approximate tier off) with the NN model.
func gatewayArgs(w workload, f *fleetProcs) []string {
	args := []string{"-addr", "127.0.0.1:0", "-model", fleetModel, "-epochs", strconv.Itoa(localEpochs),
		"-k", strconv.Itoa(fleetK), "-seed", strconv.Itoa(fleetSeed)}
	if w.sharded {
		return append(args, "-region-addrs", strings.Join(f.addrs, ","))
	}
	return append(args, "-addrs", strings.Join(f.addrs, ","))
}

// gatewayStats is the part of GET /v1/stats the benchmark reads.
type gatewayStats struct {
	Reuse *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"reuse_cache"`
	Nodes    []string        `json:"nodes"`
	Space    *geometry.Rect  `json:"space"`
	Registry *registry.Stats `json:"registry"`
	Router   *struct {
		RegionsPruned int64 `json:"regions_pruned"`
		Reuse         *struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"reuse_cache"`
		Regions []struct {
			Routed   int64           `json:"routed"`
			Registry *registry.Stats `json:"registry"`
		} `json:"regions"`
	} `json:"router"`
}

// awaitReady polls GET /v1/stats until the gateway answers with the
// advertised data space, which it can only compute once every node's
// summary is in its registry.
func awaitReady(ctx context.Context, c *client, alive func() error) (*gatewayStats, error) {
	deadline := time.Now().Add(announceTimeout)
	for {
		var st gatewayStats
		err := c.getJSON(ctx, "/v1/stats", &st)
		if err == nil && st.Space != nil && len(st.Nodes) > 0 {
			return &st, nil
		}
		if aerr := alive(); aerr != nil {
			return nil, aerr
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("gateway not ready after %v: %v", announceTimeout, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// deployment is a running system under test reached over HTTP.
type deployment struct {
	client *client
	stats  *gatewayStats // as of readiness
	setup  time.Duration // first process start until ready
}

// deploy starts the fleet and a qens-gateway over it, and waits until
// the gateway answers with the fleet quantized.
func deploy(ctx context.Context, g *procGroup, bin string, w workload) (*deployment, error) {
	start := time.Now()
	f, err := startFleet(g, bin, w, false)
	if err != nil {
		return nil, err
	}
	gw, err := g.start("qens-gateway", filepath.Join(bin, "qens-gateway"), gatewayArgs(w, f)...)
	if err != nil {
		return nil, err
	}
	url, err := gw.await(gatewayAddr, announceTimeout)
	if err != nil {
		return nil, err
	}
	c := newClient(url)
	st, err := awaitReady(ctx, c, g.alive)
	if err != nil {
		c.close()
		return nil, err
	}
	return &deployment{client: c, stats: st, setup: time.Since(start)}, nil
}
