// Command perfbench is the repository's end-to-end benchmark. It self-hosts
// the serving stack in-process (engine, durable tsdb store, model registry,
// HTTP service on loopback), drives it with one of the workloads in
// workload.go generated from --seed by kpigen, checks the outputs against
// an independent reference, and prints one JSON line of metrics.
//
//	perfbench --workload scrape --seed 1 --seconds 4 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
// traced twin of the same workload, writes its spans to
// .bench_build/trace-<workload>-<seed>.jsonl and prints the per-layer
// metrics. Run it from the repository root through perfbench/run.sh, which
// builds it first. The exit status is 0 only when every correctness check
// passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runLimit bounds a whole run: the process must finish well within three
// minutes even if a layer hangs.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 4, "time budget of the open-loop tiers (each tier runs at least 1100 requests)")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for run data and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of scrape, backfill, lifecycle, fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run did not finish in time")
		os.Exit(3)
	})
	defer watchdog.Stop()

	root, err := filepath.Abs(filepath.Join(*out, fmt.Sprintf("run-%s-%d-%d", wl.name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	b := &bench{wl: wl, seed: *seed, seconds: *seconds, root: root, ctx: ctx, log: stderr}
	if *trace == 1 {
		b.t = newTracer()
	}
	runErr := b.run()
	if runErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, runErr)
	}
	if runErr != nil && b.acct.checks.Load() == 0 {
		return 1 // the run broke before it could judge its outputs
	}
	res := result{
		Correct:   b.acct.checks.Load() == 0,
		Attempted: b.acct.attempted.Load(),
		Failed:    b.acct.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if b.t != nil {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, *seed))
		if err := b.t.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{b.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{b.e2e[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
