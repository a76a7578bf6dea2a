// Command e2ebench is the repository's end-to-end serving benchmark. It
// boots the real daemons — ten qensd nodes (or two qens-region
// daemons) and a qens-gateway — as child processes on loopback TCP,
// drives POST /v1/query from this one process, checks every answer,
// and prints the metrics by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	e2ebench -bin <dir with qensd, qens-region, qens-gateway> \
//	    --workload fresh --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced closed loop,
// its times scaled to a reference host by a probe of the host's speed
// (probe.go). --trace 1 reports per-layer metrics: the open loop
// against the real qens-gateway, and a traced run in which the gateway
// is assembled inside this process with timing wrappers at its seams.
// e2ebench/run.sh builds everything from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and bases, for the human-readable table
}

// report is a finished run.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	problems  []string // first few failure reasons
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: fresh, repeat, ingest or sharded")
		seed    = flag.Uint64("seed", 1, "workload seed: the rectangles every phase sends")
		seconds = flag.Int("seconds", 30, "measured time of a run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		bin     = flag.String("bin", "", "directory holding the qensd, qens-region and qens-gateway binaries")
	)
	flag.Parse()
	if err := run(*wname, *seed, *seconds, *trace, *bin); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run(wname string, seed uint64, seconds, trace int, bin string) error {
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	if seconds < 2 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 2 and --trace 0 or 1 (got %d, %d)", seconds, trace)
	}
	for _, exe := range []string{"qensd", "qens-region", "qens-gateway"} {
		if _, err := os.Stat(filepath.Join(bin, exe)); err != nil {
			return fmt.Errorf("-bin: %w", err)
		}
	}

	g := &procGroup{}
	defer g.shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		// A signal reaps every child before the process exits, even
		// while the main flow is blocked outside ctx.
		select {
		case s := <-sigs:
			fmt.Fprintf(os.Stderr, "e2ebench: %v: stopping every child\n", s)
			cancel()
			g.shutdown()
			os.Exit(1)
		case <-ctx.Done():
		}
	}()

	fmt.Printf("e2ebench: workload=%s seed=%d seconds=%d trace=%d commit=%s go=%s nproc=%d\n",
		w.name, seed, seconds, trace, commitID(), runtime.Version(), runtime.NumCPU())
	measure := time.Duration(seconds) * time.Second
	var rep *report
	if trace == 0 {
		rep, err = runUntraced(ctx, g, bin, w, seed, measure)
	} else {
		rep, err = runTraced(ctx, g, bin, w, seed, measure)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return errors.New("interrupted")
	}
	if err := checkDeclared(rep.metrics, trace); err != nil {
		return err
	}
	printReport(rep)
	return nil
}

// commitID names the checkout's commit from .git, without running git
// (the benchmark reads nothing outside its checkout).
func commitID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// printReport writes the human-readable table, then the result line.
func printReport(rep *report) {
	for _, m := range rep.metrics {
		fmt.Printf("  %-32s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Printf("  %-32s %14.4f %-6s %d of %d attempted\n", "failed_frac",
		ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Printf("  failure: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(b))
}

// tally folds checked requests into the report's counts.
func (r *report) tally(cs []checked) {
	for _, c := range cs {
		r.attempted++
		if c.Problem != "" {
			r.failed++
			if len(r.problems) < 5 {
				r.problems = append(r.problems, fmt.Sprintf("request %d: %s", c.Idx, c.Problem))
			}
		}
	}
	r.correct = r.failed == 0
}

// latencies returns the samples' latencies in milliseconds.
func latencies(cs []checked) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = ms(c.Latency)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// completed counts requests that did not fail (422 included).
func completed(cs []checked) int {
	n := 0
	for _, c := range cs {
		if c.Problem == "" {
			n++
		}
	}
	return n
}

// checkDeclared fails unless the metrics are exactly the ones
// BENCHMARK.json (at the checkout root) declares for this mode: the
// end_to_end list untraced, the per_layer list traced.
func checkDeclared(ms []metric, trace int) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if trace == 1 {
		list = decl.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	var bad []string
	for _, m := range ms {
		if u, ok := want[m.name]; !ok || u != m.unit {
			bad = append(bad, fmt.Sprintf("%s [%s] not declared", m.name, m.unit))
		}
		delete(want, m.name)
	}
	for name := range want {
		bad = append(bad, name+" declared but not measured")
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("BENCHMARK.json mismatch: %s", strings.Join(bad, "; "))
	}
	return nil
}
