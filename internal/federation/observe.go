package federation

import (
	"strconv"
	"time"

	"qens/internal/query"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Leader-side observability: every query execution opens a trace
// (selection → per-node train rounds → aggregation) and feeds the
// process-default metric registry. Tracing is a no-op until a tracer
// is installed (Leader.SetTracer or telemetry.SetDefaultTracer), and
// metric updates are lock-free, so the uninstrumented cost is a few
// atomic ops per query.

// NodeRound records one participant's training-round outcome as
// observed by the leader — wall time including the network, plus the
// error string when the round failed. With Config.TolerateFailures a
// failed round is skipped but stays visible here instead of vanishing
// into a bare node-id list.
type NodeRound struct {
	// NodeID is the participant.
	NodeID string
	// Round is the communication round index (always 0 for the
	// paper's single round; 0..Rounds-1 for a FedAvg request).
	Round int
	// Elapsed is the leader-observed wall time of the round.
	Elapsed time.Duration
	// Err is the failure reason ("" on success). Failed rounds are
	// excluded from the ensemble.
	Err string
}

// Failed reports whether the round failed.
func (r NodeRound) Failed() bool { return r.Err != "" }

// leaderMetrics caches the leader's registry handle; individual series
// are looked up per query because their labels (selector, node) vary.
type leaderMetrics struct {
	reg *telemetry.Registry
}

func newLeaderMetrics(reg *telemetry.Registry) *leaderMetrics {
	reg.SetHelp("qens_queries_total", "Queries executed by the leader, by selector.")
	reg.SetHelp("qens_selection_ms", "Leader-side participant ranking/selection latency (ms).")
	return &leaderMetrics{reg: reg}
}

func (m *leaderMetrics) query(selector string, selectionTime time.Duration, failed int) {
	if m == nil {
		return
	}
	m.reg.Counter("qens_queries_total", telemetry.Label{Key: "selector", Value: selector}).Inc()
	m.reg.Histogram("qens_selection_ms").ObserveDuration(selectionTime)
	if failed > 0 {
		m.reg.Counter("qens_node_failures_total").Add(int64(failed))
	}
}

func (m *leaderMetrics) round(nodeID string, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.reg.Counter("qens_leader_train_rounds_total", telemetry.Label{Key: "node", Value: nodeID}).Inc()
	m.reg.Histogram("qens_leader_train_round_ms", telemetry.Label{Key: "node", Value: nodeID}).ObserveDuration(elapsed)
}

// SetTracer pins a tracer to this leader (overriding the process
// default). Pass nil to fall back to telemetry.DefaultTracer.
func (l *Leader) SetTracer(t *telemetry.Tracer) { l.tracer = t }

// activeTracer resolves the tracer to use for a query.
func (l *Leader) activeTracer() *telemetry.Tracer {
	if l.tracer != nil {
		return l.tracer
	}
	return telemetry.DefaultTracer()
}

// startQuerySpan opens the root span for one query execution.
func (l *Leader) startQuerySpan(q query.Query, sel selection.Selector) *telemetry.SpanHandle {
	sp := l.activeTracer().StartTrace("query")
	sp.SetAttr("query", q.ID)
	sp.SetAttr("selector", sel.Name())
	return sp
}

// startSelectionSpan opens the selection child span.
func startSelectionSpan(parent *telemetry.SpanHandle) *telemetry.SpanHandle {
	return parent.Child("selection")
}

// startTrainSpan opens a per-node train child span.
func startTrainSpan(parent *telemetry.SpanHandle, nodeID string, round int) *telemetry.SpanHandle {
	sp := parent.Child("train")
	sp.SetAttr("node", nodeID)
	if round > 0 {
		sp.SetAttr("round", strconv.Itoa(round))
	}
	return sp
}

// recordNodeSpans folds the node-side phase spans piggybacked on an
// RPC response into the leader's tracer, parented under the RPC span
// that solicited them: the leader mints span IDs, stamps the node's
// identity as the span's process, and the flat retained list now holds
// the complete cross-process tree for telemetry.AssembleTrace. No-op
// when tracing is off or the response carried no spans.
func recordNodeSpans(t *telemetry.Tracer, rpc *telemetry.SpanHandle, nodeID string, spans []NodeSpan) {
	RecordRemoteSpans(t, rpc, nodeID, spans)
}

// RecordRemoteSpans re-parents phase spans reported by a remote process
// (a node, or a regional leader in the hierarchical topology) under the
// local RPC span that solicited them, stamping proc as the span's
// owning process. The root coordinator uses this to fold regional and
// node spans piggybacked on region RPCs into one cross-process trace
// tree. No-op when tracing is off or the response carried no spans.
func RecordRemoteSpans(t *telemetry.Tracer, rpc *telemetry.SpanHandle, proc string, spans []NodeSpan) {
	if t == nil || rpc == nil || len(spans) == 0 {
		return
	}
	for _, s := range spans {
		t.RecordSpan(telemetry.Span{
			TraceID:  rpc.TraceID(),
			ParentID: rpc.SpanID(),
			Name:     s.Name,
			Start:    s.Start(),
			End:      s.End(),
			Attrs:    map[string]string{"node": proc, "proc": proc},
		})
	}
}
