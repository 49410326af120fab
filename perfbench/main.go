// Command perfbench is the end-to-end load driver of the leaplist
// library: two closed-loop clients drive one Sharded[uint64] with library
// defaults through one workload, check every result against models kept
// apart from the library, and print the workload's metrics.
//
//	perfbench --workload point-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// the command runs the workload twice, each in a child process of its
// own: untraced, then traced with spans around every library call and
// the STM, epoch and runtime counters on; it reports the per-layer
// metrics and the tracing overhead. The last line of standard output is
// one JSON object; the exit code is nonzero when a checker fails.
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"leaplist"
)

// The workloads; README.md gives their make-up and why each was chosen.
// point-zipf and hot-shared-bundles run but stay out of BENCHMARK.json.
var workloads = []*workload{
	{name: "point-zipf", setup: setupPoint, warmOps: 100_000},
	{name: "scan-churn", setup: setupScan, warmOps: 5_000},
	{name: "ledger", setup: setupLedger, warmOps: 20_000},
	// hot-shared runs with versioned links off: with them on (the library
	// default) an operation hangs after seconds, at a moment that differs
	// from run to run. hot-shared-bundles keeps the defaults and
	// reproduces that hang under the watchdog.
	{name: "hot-shared", setup: setupHot, warmOps: 20_000, opts: []leaplist.Option{leaplist.WithBundles(false)}},
	{name: "hot-shared-bundles", setup: setupHot, warmOps: 20_000},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	// rounds is the number of set-up-and-measure rounds of a run; each
	// measures seconds/rounds (see runWorkload).
	rounds = 5
	// opBound is how long one operation may run before the watchdog counts
	// it failed: three orders of magnitude above the slowest p99 seen.
	opBound = 2 * time.Second
)

// output is the JSON object printed as the last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the metrics --trace 0 reports; --trace 1 reports every
// other metric of the traced run plus the tracing overhead.
var endToEnd = map[string]bool{
	"setup_s": true, "ops_per_s": true,
	"get_p50_us": true, "get_p99_us": true, "scan_p50_us": true, "scan_p99_us": true,
	"write_p50_us": true, "write_p99_us": true,
	"scan_keys_per_s": true, "heap_bytes_per_key": true,
}

func main() {
	name := flag.String("workload", "", "workload to run: point-zipf, scan-churn, ledger or hot-shared")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	child := flag.Bool("child", false, "run one measurement in this process and print all its metrics")
	outDir := flag.String("out", ".bench_build/perfbench-out", "directory for span dumps and stacks of stuck operations")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, rounds: rounds, bound: opBound, outDir: *outDir}

	var out output
	var err error
	switch {
	case *child:
		out, err = measure(w, cfg, nil)
	case cfg.traced:
		out, err = traced(cfg)
	default:
		out, err = measure(w, cfg, endToEnd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// measure runs w in this process and returns its metrics, restricted to
// keep when keep is not nil.
func measure(w *workload, cfg config, keep map[string]bool) (output, error) {
	res, err := runWorkload(w, cfg)
	if err != nil {
		return output{}, err
	}
	if res.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %v\n", w.name, res.err)
	}
	out := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d seconds %v traced %v\n", w.name, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Printf("attempted %d failed %d correct %v\n", res.attempted, res.failed, res.correct)
	for _, m := range res.metrics {
		fmt.Printf("%-32s %16.4f %s\n", m.name, m.value, m.unit)
		if keep == nil || keep[m.name] {
			out.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	return out, nil
}

// traced runs the workload untraced and then traced, each in a child
// process of this binary, and reports the traced run's per-layer metrics
// with the overhead of tracing on throughput.
func traced(cfg config) (output, error) {
	plain, err := runChild(cfg, 0)
	if err != nil {
		return output{}, err
	}
	tr, err := runChild(cfg, 1)
	if err != nil {
		return output{}, err
	}
	out := output{
		Correct:   plain.Correct && tr.Correct,
		Attempted: tr.Attempted,
		Failed:    tr.Failed,
		Metrics:   map[string]metricValue{},
	}
	for n, m := range tr.Metrics {
		if !endToEnd[n] {
			out.Metrics[n] = m
		}
	}
	u, t := plain.Metrics["ops_per_s"].Value, tr.Metrics["ops_per_s"].Value
	out.Metrics["trace.untraced_ops_per_s"] = metricValue{u, "ops/s"}
	out.Metrics["trace.traced_ops_per_s"] = metricValue{t, "ops/s"}
	if u > 0 {
		out.Metrics["trace.overhead_pct"] = metricValue{100 * (u - t) / u, "%"}
	}
	for _, n := range []string{"trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_pct"} {
		fmt.Printf("%-32s %16.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	return out, nil
}

// runChild runs this binary on the same workload with --child, bounded
// in time, and parses the JSON object it prints last.
func runChild(cfg config, trace int) (output, error) {
	self, err := os.Executable()
	if err != nil {
		return output{}, err
	}
	limit := time.Duration(cfg.seconds*float64(time.Second)) + 75*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	// Later flags win, so the overrides go last.
	args := append(append([]string{}, os.Args[1:]...), "--child", "--trace", strconv.Itoa(trace))
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Bytes()
		os.Stderr.Write(append(line, '\n'))
		last = append(last[:0], line...)
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		if runErr != nil {
			return output{}, fmt.Errorf("child run (trace %d): %w", trace, runErr)
		}
		return output{}, fmt.Errorf("child run (trace %d) printed no result: %w", trace, err)
	}
	if runErr != nil && out.Correct {
		return output{}, fmt.Errorf("child run (trace %d): %w", trace, runErr)
	}
	return out, nil
}
