package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
)

// answer is the part of a POST /v1/query response the benchmark reads.
type answer struct {
	ID           string `json:"id"`
	Participants []struct {
		NodeID string  `json:"node_id"`
		Rank   float64 `json:"rank"`
	} `json:"participants"`
	Failed      []string    `json:"failed"`
	Reused      bool        `json:"reused"`
	Approx      bool        `json:"approx"`
	Coalesced   bool        `json:"coalesced"`
	QueueWaitMS float64     `json:"queue_wait_ms"`
	ElapsedMS   float64     `json:"elapsed_ms"`
	LocalParams [][]float64 `json:"local_params"`
	Stats       struct {
		SelectionMS   float64 `json:"selection_ms"`
		TrainMS       float64 `json:"train_ms"`
		DataFraction  float64 `json:"data_fraction"`
		EnsembleSize  int     `json:"ensemble_size"`
		FailedRounds  int     `json:"failed_rounds"`
		Participating int     `json:"participating"`
		SamplesUsed   int     `json:"samples_used"`
	} `json:"stats"`
}

// kind names how an answer was served.
func (a *answer) kind() string {
	switch {
	case a.Coalesced:
		return "coalesced"
	case a.Reused:
		return "reused"
	default:
		return "trained"
	}
}

// nodeSet is the answer's sorted participant ids.
func (a *answer) nodeSet() []string {
	ids := make([]string, len(a.Participants))
	for i, p := range a.Participants {
		ids[i] = p.NodeID
	}
	sort.Strings(ids)
	return ids
}

// checked is one request after the answer check.
type checked struct {
	sample
	Answer      *answer // 200 answers only
	Unsupported bool    // the 422 "no supporting node" answer
	Problem     string  // why the request failed ("" when it did not)
}

// checker validates answers against the roster, the model spec and,
// where the fleet is static, the oracle's plan.
type checker struct {
	roster map[string]bool
	o      *oracle
	// exact: the fleet never changes and no two rectangles share a
	// cache entry, so every status and every trained participant set
	// must equal the oracle's (fresh); static: statuses must (repeat).
	exact, static bool
}

func (c *checker) check(s sample, r geometry.Rect) checked {
	out := checked{sample: s}
	out.Body = nil // checked here; the report keeps only the decoded answer
	fail := func(format string, args ...any) checked {
		out.Problem = fmt.Sprintf(format, args...)
		return out
	}
	if s.Err != nil {
		return fail("transport: %v", s.Err)
	}
	var want []string
	supported := true
	if c.exact || c.static {
		var err error
		if want, supported, err = c.o.plan(r); err != nil {
			return fail("oracle: %v", err)
		}
	}
	switch s.Status {
	case http.StatusOK:
	case http.StatusUnprocessableEntity:
		out.Unsupported = true
		if (c.exact || c.static) && supported {
			return fail("422 for a rectangle the fleet supports: %s", s.Body)
		}
		return out
	default:
		return fail("HTTP %d: %s", s.Status, strings.TrimSpace(string(s.Body)))
	}
	if !supported {
		return fail("200 for a rectangle no node supports")
	}
	var a answer
	if err := json.Unmarshal(s.Body, &a); err != nil {
		return fail("decode answer: %v", err)
	}
	out.Answer = &a
	if msg := c.validate(&a); msg != "" {
		return fail("%s", msg)
	}
	if c.exact && !a.Reused {
		if got := a.nodeSet(); strings.Join(got, ",") != strings.Join(want, ",") {
			return fail("participants %v, the fleet selects %v", got, want)
		}
	}
	if s.Idx >= keepParams {
		a.LocalParams = nil // beyond what the quality score can reach
	}
	return out
}

// validate checks one answer's internal consistency.
func (c *checker) validate(a *answer) string {
	if len(a.Participants) == 0 {
		return "no participants"
	}
	seen := map[string]bool{}
	for _, p := range a.Participants {
		if !c.roster[p.NodeID] {
			return fmt.Sprintf("participant %q is not in the roster", p.NodeID)
		}
		if seen[p.NodeID] {
			return fmt.Sprintf("participant %q listed twice", p.NodeID)
		}
		seen[p.NodeID] = true
		if !(p.Rank >= 0) || math.IsInf(p.Rank, 0) {
			return fmt.Sprintf("participant %q has rank %v", p.NodeID, p.Rank)
		}
	}
	if len(a.Failed) != 0 || a.Stats.FailedRounds != 0 {
		return fmt.Sprintf("failed rounds %v", a.Failed)
	}
	if len(a.LocalParams) != len(a.Participants) {
		return fmt.Sprintf("%d local_params vectors for %d participants", len(a.LocalParams), len(a.Participants))
	}
	for i, v := range a.LocalParams {
		if len(v) != c.o.paramLen {
			return fmt.Sprintf("local_params[%d] has %d values, the spec has %d", i, len(v), c.o.paramLen)
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Sprintf("local_params[%d] holds %v", i, x)
			}
		}
	}
	st := a.Stats
	switch {
	case a.Approx:
		return "approx answer with the approximate tier off"
	case st.Participating != len(a.Participants):
		return fmt.Sprintf("stats.participating %d for %d participants", st.Participating, len(a.Participants))
	case st.EnsembleSize != len(a.Participants):
		return fmt.Sprintf("stats.ensemble_size %d for %d participants", st.EnsembleSize, len(a.Participants))
	case st.SamplesUsed <= 0 || !(st.DataFraction > 0 && st.DataFraction <= 1):
		return fmt.Sprintf("trained on %d samples (fraction %v)", st.SamplesUsed, st.DataFraction)
	case !(a.QueueWaitMS >= 0) || a.ElapsedMS < a.QueueWaitMS:
		return fmt.Sprintf("queue wait %v ms exceeds elapsed %v ms", a.QueueWaitMS, a.ElapsedMS)
	}
	return ""
}

// mseQueries is how many answers the quality score averages over. The
// paper scores 200 queries; more keep the score steady across seeds.
const mseQueries = 500

// keepParams: answers to the first keepParams requests of a phase keep
// their local parameters for the quality score; later ones drop them
// once checked, so a fast workload's answers fit in memory.
const keepParams = 2000

// answerMSE rebuilds the served ensemble of each answered request from
// its local parameters, ranks and weighted aggregation, and scores it
// on the held-out samples inside the query's bounds. It averages over
// the first mseQueries answers (in request order) that have held-out
// samples in bounds.
func answerMSE(o *oracle, done []checked, rects []geometry.Rect) (float64, int, error) {
	byIdx := append([]checked(nil), done...)
	sort.Slice(byIdx, func(i, j int) bool { return byIdx[i].Idx < byIdx[j].Idx })
	var sum float64
	n := 0
	for _, c := range byIdx {
		if n == mseQueries {
			break
		}
		if c.Answer == nil || c.Problem != "" || c.Answer.LocalParams == nil {
			continue
		}
		sub := o.heldOut.FilterInRect(rects[c.Idx])
		if sub.Len() == 0 {
			continue
		}
		a := c.Answer
		params := make([]ml.Params, len(a.LocalParams))
		ranks := make([]float64, len(a.LocalParams))
		for i, v := range a.LocalParams {
			m, err := o.spec.New()
			if err != nil {
				return 0, 0, err
			}
			p := m.Params()
			p.Values = v
			params[i] = p
			ranks[i] = a.Participants[i].Rank
		}
		ens, err := federation.NewEnsemble(o.spec, params, ranks, federation.WeightedAveraging)
		if err != nil {
			return 0, 0, fmt.Errorf("request %d: %w", c.Idx, err)
		}
		x, y := sub.XY()
		sum += ml.MSE(y, ens.PredictBatch(x))
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no answered query has held-out samples in bounds")
	}
	return sum / float64(n), n, nil
}
