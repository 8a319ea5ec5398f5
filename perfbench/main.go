// Command perfbench is the PSgL benchmark: it runs one named workload
// against the program built from this checkout, checks every output against
// the centralized oracle, and prints one JSON line of metrics. See
// README.md for the workloads, the metrics and what each layer metric
// should move.
//
//	perfbench --workload list-skew --seed 1 --seconds 30 --trace 0
//
// The benchmark measures the program only from outside: it calls the
// packages' exported functions and reads what they return, and it drives
// psgl-server over HTTP.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration // length of the timed phase
	Traced   bool
	Server   string // psgl-server binary (serve-mixed)
	Out      string // directory for span files, the oracle cache and server logs
	Log      func(format string, a ...any)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config, *tracer) (*outcome, error){
	"list-skew":   func(ctx context.Context, c config, t *tracer) (*outcome, error) { return runList(ctx, c, t, listSkew) },
	"list-tcp":    func(ctx context.Context, c config, t *tracer) (*outcome, error) { return runList(ctx, c, t, listTCP) },
	"serve-mixed": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: list-skew, list-tcp or serve-mixed")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
	server := fs.String("server", "", "psgl-server binary, required by serve-mixed")
	out := fs.String("out", ".bench_build", "directory for span files, the oracle cache and server logs")
	engine := fs.String("engine", "", "internal: run one list-job call described by this JSON and print its measurements")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *engine != "" {
		if err := runEngine(context.Background(), *engine, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: engine: %v\n", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want list-skew, list-tcp or serve-mixed)\n", *workload)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be >= 1, have %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, have %d\n", *trace)
		return 2
	}
	cfg := config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds) * time.Second,
		Traced:   *trace == 1,
		Server:   *server,
		Out:      *out,
		Log: func(format string, a ...any) {
			fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...)
		},
	}
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runner(ctx, cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(cfg.Out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := tr.write(path, cfg.Workload, cfg.Seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		cfg.Log("spans written to %s", path)
	}
	rep, err := res.build(cfg.Traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
