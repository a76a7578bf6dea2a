package federation

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"qens/internal/ml"
	"qens/internal/selection"
)

func TestAuditLogRoundTrip(t *testing.T) {
	fleet := testFleet(t)
	var buf bytes.Buffer
	log := NewAuditLog(&buf)

	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	for i := 0; i < 3; i++ {
		res, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Record(res); err != nil {
			t.Fatal(err)
		}
	}
	if log.Len() != 3 {
		t.Fatalf("log len %d", log.Len())
	}
	records, err := ReadAuditLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("%d records", len(records))
	}
	r := records[0]
	if r.QueryID != "q-mid" || r.Selector != "query-driven" || r.Aggregation != "weighted" {
		t.Fatalf("record %+v", r)
	}
	if len(r.Participants) == 0 || r.SamplesUsed == 0 || r.TrainTimeMS <= 0 {
		t.Fatalf("record missing stats: %+v", r)
	}
	if r.DataFraction <= 0 || r.DataFraction >= 1 {
		t.Fatalf("data fraction %v", r.DataFraction)
	}
}

func TestAuditLogErrors(t *testing.T) {
	log := NewAuditLog(&bytes.Buffer{})
	if err := log.Record(nil); err == nil {
		t.Fatal("accepted nil result")
	}
	if _, err := ReadAuditLog(strings.NewReader("{broken")); err == nil {
		t.Fatal("accepted broken log")
	}
	// Empty log reads as empty.
	recs, err := ReadAuditLog(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log: %v, %d records", err, len(recs))
	}
}

func TestPredictWithSpread(t *testing.T) {
	p1 := trainedParams(t, 1, 30)
	p2 := trainedParams(t, 3, 31)
	e, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p1, p2}, []float64{1, 1}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	pred, spread := e.PredictWithSpread([]float64{10})
	if math.Abs(pred-e.Predict([]float64{10})) > 1e-12 {
		t.Fatalf("spread path changed prediction: %v", pred)
	}
	// Slopes 1 and 3 at x=10: predictions ~10 and ~30, spread ~10.
	if spread < 5 || spread > 15 {
		t.Fatalf("spread %v, want ~10", spread)
	}
	// Agreeing members: near-zero spread.
	same, err := NewEnsemble(ml.PaperLR(1), []ml.Params{p1, p1}, []float64{1, 1}, ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if _, s := same.PredictWithSpread([]float64{10}); s > 1e-9 {
		t.Fatalf("identical members spread %v", s)
	}
	// Single member: zero by definition.
	one, _ := NewEnsemble(ml.PaperLR(1), []ml.Params{p1}, []float64{1}, ModelAveraging)
	if _, s := one.PredictWithSpread([]float64{10}); s != 0 {
		t.Fatalf("single-member spread %v", s)
	}
}
