// Command perfbench is the repository's benchmark: it runs one workload for a
// fixed time, checks the program's outputs, and prints its metrics as one
// JSON object on the last line of standard output. See README.md for the
// workloads and every metric; run it through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is a run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	problems          []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runConfig carries the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sim-history, sim-hostile or live-kv")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	rep := &report{correct: true}
	start := time.Now()
	switch cfg.workload {
	case "sim-history", "sim-hostile":
		runSim(cfg, simSpecs[cfg.workload], rep)
	case "live-kv":
		runLive(cfg, rep)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sim-history, sim-hostile or live-kv)\n", cfg.workload)
		os.Exit(2)
	}

	fmt.Printf("# %s seed=%d trace=%v: %.1fs, %d ops attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.trace, time.Since(start).Seconds(), rep.attempted, rep.failed)
	for _, m := range rep.metrics {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("CORRECTNESS VIOLATION: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}
