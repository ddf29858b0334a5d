// Command bench regenerates the experiment tables of EXPERIMENTS.md on the
// parallel sweep engine: each experiment decomposes into independent seeded
// cells that fan out across a bounded worker pool, and rows reassemble in
// deterministic order — the printed tables are byte-identical for any
// -parallel value.
//
// Usage:
//
//	bench                       # run all experiments (E1..E14), print tables
//	bench -exp e5               # run one experiment
//	bench -quick                # smaller workloads
//	bench -seed 7               # change the base seed
//	bench -parallel 4           # worker-pool size (default GOMAXPROCS)
//	bench -repeat 5             # time every cell as the median of 5 runs
//	                            # (rows are deterministic and printed once;
//	                            # only the recorded timings steady; the
//	                            # max−min spread per cell lands in the
//	                            # report's spread_ms column)
//	bench -json BENCH_6.json    # also write the machine-readable report
//	bench -json BENCH_6.json -scaling 1,2,4,8
//	                            # additionally rerun the suite per worker
//	                            # count and record the wall-time scaling
//	bench -json BENCH_8.json -scalen 5,16,64,256
//	                            # additionally run the En cluster-size sweep
//	                            # (the same ETOB workload at each n, all-to-all
//	                            # vs gossip dissemination) into the report's
//	                            # "scaling_n" section
//	bench -json BENCH_7.json -metrics
//	                            # additionally rerun the suite with the obs
//	                            # metrics registry attached to every cell's
//	                            # kernel and record the on/off overhead
//	                            # comparison in the report's "metrics"
//	                            # section (errors if observation changes
//	                            # any table row)
//	bench -profile cpu          # write cpu.pprof (or mem.pprof) covering
//	bench -profile mem          # the experiment run; -profile-dir sets
//	                            # where the profile lands (default ".")
//
// The -json report (schema "repro-bench/6", see internal/bench.Report)
// records per-experiment wall time (median-of-(-repeat) per cell) with its
// run-to-run spread, kernel steps/sec, the kernel and CHT microbenchmarks
// (ns/op, allocs/op), the optional scaling sweeps, and the optional
// metrics-on/off overhead audit (see internal/bench.MetricsCompare).
// Open-loop latency (visible and order-stable, sim and live) is measured by
// the repository benchmark instead: see perfbench/README.md.
// Progress notes for the extra passes go to stderr; stdout carries only the
// tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "", "experiment id ("+strings.Join(bench.IDs(), ", ")+"); empty = all")
	quick := flag.Bool("quick", false, "smaller workloads")
	seed := flag.Int64("seed", 42, "base PRNG seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker-pool size (1 = serial, <=0 = GOMAXPROCS)")
	repeat := flag.Int("repeat", 1, "run every cell N times and record the median cell time (tames single-core noise)")
	jsonPath := flag.String("json", "", "write a machine-readable report (BENCH_<n>.json) to this path")
	scaling := flag.String("scaling", "", "comma-separated worker counts to sweep for the -json scaling section, e.g. 1,2,8")
	scaleN := flag.String("scalen", "", "comma-separated cluster sizes for the -json scaling_n section (En experiment), e.g. 5,16,64,256")
	metrics := flag.Bool("metrics", false, "rerun the suite with the obs metrics registry on and record the overhead comparison in the -json report's metrics section")
	profileKind := flag.String("profile", "", "write a pprof profile of the experiment run: cpu or mem")
	profileDir := flag.String("profile-dir", ".", "directory for -profile output (cpu.pprof / mem.pprof)")
	flag.Parse()

	opts := bench.Options{Quick: *quick, Seed: *seed}
	var ids []string
	if *exp != "" {
		ids = []string{*exp}
	}
	if *jsonPath == "" && (*scaling != "" || *scaleN != "" || *metrics) {
		fmt.Fprintln(os.Stderr, "bench: -scaling/-scalen/-metrics require -json")
		return 2
	}
	stopProfile, err := startProfile(*profileKind, *profileDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	defer func() {
		if perr := stopProfile(); perr != nil {
			fmt.Fprintf(os.Stderr, "bench: profile: %v\n", perr)
		}
	}()

	runner := bench.Runner{Opts: opts, Parallel: *parallel, Repeat: *repeat}
	start := time.Now()
	results, err := runner.Run(ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err) // the registry error already names the valid IDs
		return 2
	}
	wall := time.Since(start)
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.Table.Format())
	}

	if *jsonPath == "" {
		return 0
	}
	report := bench.NewReport(opts, *parallel, *repeat, results, wall)
	if *scaling != "" {
		points, err := scalingSweep(runner, ids, *scaling)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		report.AddScaling(points)
	}
	if *scaleN != "" {
		var ns []int
		for _, s := range strings.Split(*scaleN, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				fmt.Fprintf(os.Stderr, "bench: bad -scalen entry %q (want integers >= 2)\n", s)
				return 2
			}
			ns = append(ns, n)
		}
		fmt.Fprintf(os.Stderr, "bench: running En cluster-size sweep at n = %s\n", *scaleN)
		report.ScalingN = bench.ScaleN(ns, *quick, *seed)
		for _, r := range report.ScalingN {
			fmt.Fprintf(os.Stderr, "bench:   n=%-4d %-10s fanout %-3d %8.1f env/op %10.0f bytes/proc %9.0f steps/s %5.1f%% delivered\n",
				r.N, r.Mode, r.SendFanout, r.EnvPerOp, r.BytesPerProc, r.StepsPerSec, r.DeliveredPct)
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "bench: running metrics-on/off overhead comparison")
		mres, err := bench.MetricsCompare(runner, ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		report.AddMetrics(mres)
	}
	fmt.Fprintln(os.Stderr, "bench: running kernel microbenchmarks")
	report.Micro = bench.Microbenchmarks(*quick)
	if err := report.WriteFile(*jsonPath); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: report written to %s\n", *jsonPath)
	return 0
}

// startProfile begins the requested pprof capture and returns a stop function
// to call when the run is over. kind "" is a no-op; "cpu" records the whole
// run into cpu.pprof; "mem" snapshots the heap at the end into mem.pprof.
func startProfile(kind, dir string) (func() error, error) {
	switch kind {
	case "":
		return func() error { return nil }, nil
	case "cpu":
		f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func() error {
			pprof.StopCPUProfile()
			fmt.Fprintf(os.Stderr, "bench: cpu profile written to %s\n", f.Name())
			return f.Close()
		}, nil
	case "mem":
		path := filepath.Join(dir, "mem.pprof")
		return func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			fmt.Fprintf(os.Stderr, "bench: heap profile written to %s\n", path)
			return pprof.WriteHeapProfile(f)
		}, nil
	default:
		return nil, fmt.Errorf("bad -profile %q (want cpu or mem)", kind)
	}
}

// scalingSweep reruns the selected experiments once per worker count and
// measures the suite wall time.
func scalingSweep(base bench.Runner, ids []string, spec string) ([]bench.ScalingPoint, error) {
	var points []bench.ScalingPoint
	for _, s := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -scaling entry %q (want positive integers)", s)
		}
		fmt.Fprintf(os.Stderr, "bench: scaling sweep with %d workers\n", w)
		// Deliberately not inheriting Repeat: a scaling point records one
		// wall time, so repetitions would only multiply work.
		r := bench.Runner{Opts: base.Opts, Parallel: w}
		start := time.Now()
		if _, err := r.Run(ids); err != nil {
			return nil, err
		}
		points = append(points, bench.ScalingPoint{Workers: w, WallMS: float64(time.Since(start).Nanoseconds()) / 1e6})
	}
	return points, nil
}
