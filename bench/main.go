// Command bench is the repository's end-to-end benchmark. It runs one
// of three closed-loop workloads of learning sessions in this process,
// checks every session's output, and prints each metric by name with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) profiles the timed window and reports the per-layer
// metrics instead. See README.md for the workloads and the metrics.
//
//	go run . -workload suites -seed 1 -seconds 30 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"
)

func main() {
	var cfg Config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "suites", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the pass orders")
	flag.Float64Var(&seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 profiles the window and reports the per-layer metrics")
	flag.StringVar(&cfg.Repo, "repo", "..", "repository root, for the golden learned queries")
	flag.StringVar(&cfg.Out, "out", "", "directory for a traced run's span file and CPU profile")
	flag.Parse()
	cfg.Window = time.Duration(seconds * float64(time.Second))
	cfg.Trace = trace == 1
	cfg.Setups = 9
	cfg.MinTail = 10

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	out, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	report(out)
	if !out.Correct {
		os.Exit(1)
	}
}

// report prints the metrics one per line, any failures and CPU split to
// standard error, and the JSON result as the last line.
func report(out *outcome) {
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-46s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, r := range out.reasons {
		fmt.Fprintln(os.Stderr, "failed:", r)
	}
	if len(out.cpu) > 0 {
		pkgs := make([]string, 0, len(out.cpu))
		for p := range out.cpu {
			pkgs = append(pkgs, p)
		}
		sort.Slice(pkgs, func(i, j int) bool { return out.cpu[pkgs[i]] > out.cpu[pkgs[j]] })
		for _, p := range pkgs {
			fmt.Fprintf(os.Stderr, "cpu %-12s %10.1f ms\n", p, float64(out.cpu[p])/1e6)
		}
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
