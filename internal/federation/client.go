package federation

import (
	"context"

	"qens/internal/cluster"
)

// Client is the leader's view of a participant node. The in-process
// implementation below wraps *Node directly; internal/transport
// provides a TCP-backed implementation with the same semantics, so the
// leader's orchestration is agnostic to where participants run.
//
// Every method takes a context.Context carrying the originating
// query's deadline and cancellation: the serving path
// (internal/gateway) threads a per-request context from the HTTP
// handler through Leader.Execute down to the wire, so an
// expired query stops consuming node compute as early as possible.
// Implementations must return promptly with ctx.Err() (or an error
// wrapping it) once the context is done.
type Client interface {
	// ID returns the participant's node id.
	ID() string
	// Summary fetches the cluster advertisement.
	Summary(ctx context.Context) (cluster.NodeSummary, error)
	// Train runs a local training round.
	Train(ctx context.Context, req TrainRequest) (TrainResponse, error)
	// Evaluate scores a model on the node's local data.
	Evaluate(ctx context.Context, req EvalRequest) (EvalResponse, error)
}

// DeltaSummaryClient is an optional Client capability used by the
// registry's delta refresh: an epoch-conditional summary probe that
// answers unchanged=true (no summary body) when the node's
// advertisement still carries the epoch the leader already holds.
// Clients without the capability are probed with a plain Summary call
// — correct, just not byte-proportional to churn.
type DeltaSummaryClient interface {
	SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error)
}

// PushSummaryClient is an optional Client capability inverting the
// summary-freshness flow: instead of the leader polling, the node
// pushes its fresh advertisement whenever its epoch bumps (ingest
// drift, requantization). SubscribeSummaries registers the handler and
// returns ok=false (nil error) when the participant cannot push — an
// old daemon or a v1 connection — in which case the leader keeps
// pulling on the TTL as before. Handlers may be invoked from the
// participant's own goroutines and must hand off quickly.
type PushSummaryClient interface {
	SubscribeSummaries(ctx context.Context, handler func(cluster.NodeSummary)) (bool, error)
}

// LocalClient adapts an in-process Node to the Client interface.
type LocalClient struct {
	Node *Node
}

// ID implements Client.
func (c LocalClient) ID() string { return c.Node.ID() }

// Summary implements Client.
func (c LocalClient) Summary(ctx context.Context) (cluster.NodeSummary, error) {
	if err := ctx.Err(); err != nil {
		return cluster.NodeSummary{}, err
	}
	return c.Node.Summary(), nil
}

// SummaryIfChanged implements DeltaSummaryClient. The epoch check and
// the summary read race benignly with a concurrent requantize: a stale
// "unchanged" answer is impossible because the node bumps its epoch
// before publishing the new summary, so at worst the probe returns the
// fresh summary for an epoch that was current a moment ago.
func (c LocalClient) SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error) {
	if err := ctx.Err(); err != nil {
		return cluster.NodeSummary{}, false, err
	}
	if known != 0 && known == c.Node.SummaryEpoch() {
		return cluster.NodeSummary{}, true, nil
	}
	return c.Node.Summary(), false, nil
}

// SubscribeSummaries implements PushSummaryClient for an in-process
// node: the handler hangs off the node engine's epoch-bump watcher
// list, so every material advertisement change (incremental ingest or
// full requantize) is delivered push-style, exactly like a remote
// daemon's push frame.
func (c LocalClient) SubscribeSummaries(ctx context.Context, handler func(cluster.NodeSummary)) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	c.Node.OnAdvertise(handler)
	return true, nil
}

// Train implements Client. Training is CPU-bound and in-process, so
// cancellation is checked between supporting clusters rather than
// mid-epoch (see Node.TrainContext).
func (c LocalClient) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	return c.Node.TrainContext(ctx, req)
}

// Evaluate implements Client. Cancellation propagates into the node's
// engine: the job honors ctx while queued, during the subspace filter
// scan and between prediction mini-batches.
func (c LocalClient) Evaluate(ctx context.Context, req EvalRequest) (EvalResponse, error) {
	return c.Node.EvaluateContext(ctx, req)
}
