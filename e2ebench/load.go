package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/geometry"
)

// reqHeader carries the request's id so the traced gateway's handler
// seam can join its timing to the client's.
const reqHeader = "X-Bench-Request"

// requestTimeout bounds one query; a slower answer counts as failed.
const requestTimeout = 10 * time.Second

// queryBody is the POST /v1/query body every request sends.
type queryBody struct {
	ID            string        `json:"id"`
	Bounds        geometry.Rect `json:"bounds"`
	Selector      string        `json:"selector"`
	Epsilon       float64       `json:"epsilon"`
	TopL          int           `json:"top_l"`
	Aggregation   string        `json:"aggregation"`
	IncludeParams bool          `json:"include_params"`
}

// encodeQuery renders one request body: query-driven selection at the
// paper's operating point (ε=0.6, top-ℓ=3), weighted aggregation, and
// the local parameters the answer check and quality score need.
func encodeQuery(id string, r geometry.Rect) []byte {
	b, err := json.Marshal(queryBody{
		ID: id, Bounds: r, Selector: "query-driven", Epsilon: 0.6, TopL: 3,
		Aggregation: "weighted", IncludeParams: true,
	})
	if err != nil {
		panic(err) // a struct of floats and strings always marshals
	}
	return b
}

// prepared is one encoded request.
type prepared struct {
	ID   string
	Body []byte
}

// sample is one request's client-side outcome.
type sample struct {
	ID      string
	Idx     int           // index into the phase's rectangle list
	Status  int           // HTTP status (0 on a transport error)
	Latency time.Duration // closed loop: from send; open loop: from due
	Lag     time.Duration // open loop: how late the generator sent it
	Body    []byte        // dropped once the answer is checked
	Bytes   int           // body size
	Err     error
}

// client posts queries over keep-alive connections.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string) *client {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{url: url, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one query and reads the whole answer.
func (c *client) post(ctx context.Context, p prepared) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/query", bytes.NewReader(p.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, p.ID)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// getJSON decodes a GET endpoint into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// closedLoop runs `clients` callers, each sending its next request only
// after the previous answer arrived, until dur has passed. Requests
// take consecutive indices; reqs[i] is request i.
func closedLoop(ctx context.Context, c *client, reqs []prepared, clients int, dur time.Duration) ([]sample, time.Duration, error) {
	var next atomic.Int64
	var overrun atomic.Bool
	per := make([][]sample, clients)
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					overrun.Store(true)
					return
				}
				t0 := time.Now()
				st, body, err := c.post(ctx, reqs[i])
				per[w] = append(per[w], sample{ID: reqs[i].ID, Idx: i, Status: st, Latency: time.Since(t0), Body: body, Bytes: len(body), Err: err})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if overrun.Load() {
		return nil, 0, fmt.Errorf("closed loop ran out of its %d prepared requests", len(reqs))
	}
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed, ctx.Err()
}

// clock is the time source of the open-loop generator (replaced in
// tests to inject generator stalls).
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// schedule issues n requests at a fixed rate: request i is due at
// start + i/rate whatever happened to earlier ones. dispatch must not
// block; it is handed the due time so the request's latency can be
// taken from when it was due, which charges a generator stall to the
// requests it delayed. schedule returns how late each dispatch was.
func schedule(clk clock, start time.Time, rate float64, n int, dispatch func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		clk.SleepUntil(due)
		lags[i] = clk.Now().Sub(due)
		dispatch(i, due)
	}
	return lags
}

// openLoop sends floor(rate·dur) requests on schedule and waits for
// every answer. Latency is measured from each request's due time.
func openLoop(ctx context.Context, c *client, reqs []prepared, rate float64, dur time.Duration) ([]sample, error) {
	n := int(rate * dur.Seconds())
	if n > len(reqs) {
		return nil, fmt.Errorf("open loop needs %d requests, %d prepared", n, len(reqs))
	}
	out := make([]sample, n)
	var wg sync.WaitGroup
	lags := schedule(wallClock{}, time.Now(), rate, n, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, body, err := c.post(ctx, reqs[i])
			out[i] = sample{ID: reqs[i].ID, Idx: i, Status: st, Latency: time.Since(due), Body: body, Bytes: len(body), Err: err}
		}()
	})
	wg.Wait()
	for i := range out {
		out[i].Lag = lags[i]
	}
	return out, ctx.Err()
}

// sequential sends reqs one at a time, in order.
func sequential(ctx context.Context, c *client, reqs []prepared) ([]sample, error) {
	out := make([]sample, 0, len(reqs))
	for i, p := range reqs {
		t0 := time.Now()
		st, body, err := c.post(ctx, p)
		out = append(out, sample{ID: p.ID, Idx: i, Status: st, Latency: time.Since(t0), Body: body, Bytes: len(body), Err: err})
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
	}
	return out, nil
}
