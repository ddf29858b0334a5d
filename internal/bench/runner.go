package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Runner is the parallel sweep engine: it decomposes experiments into their
// independent cells (one seeded kernel per cell), fans the cells across a
// bounded worker pool, and reassembles each table in registry/cell order —
// so the output is byte-identical to the serial path no matter how the
// scheduler interleaves workers. Determinism comes for free from the cell
// contract (each cell is self-contained and seeded) plus index-addressed
// result slots; there is no cross-worker communication beyond the job feed.
type Runner struct {
	// Opts are the experiment options applied to every experiment.
	Opts Options
	// Parallel is the worker-pool size: 1 runs the cells serially on the
	// calling goroutine (the reference path), larger values fan out across
	// that many workers, and values <= 0 default to GOMAXPROCS.
	Parallel int
	// Repeat runs every cell N times and records the MEDIAN execution time
	// (values <= 1 mean once). Cells are deterministic, so the rows are
	// identical across repetitions and only the timing varies — the median
	// tames the ±2× single-core scheduling noise that makes one-shot cell
	// times unreliable in BENCH_*.json comparisons.
	Repeat int
}

// workers is the worker-pool size Run uses: Parallel, with values <= 0
// resolved to GOMAXPROCS.
func workers(parallel int) int {
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// Result is one experiment's assembled table plus the perf accounting the
// BENCH_*.json report records.
type Result struct {
	Table Table
	// Cells is the number of independent cells the experiment decomposed into.
	Cells int
	// Steps is the total kernel steps executed across the cells.
	Steps int64
	// CellTime is the summed execution time of the cells (CPU-seconds, not
	// wall time: under parallelism cells overlap, so the suite's wall time is
	// measured by the caller around Run). With Repeat > 1 each cell
	// contributes its median-of-N time.
	CellTime time.Duration
	// CellSpread is the summed per-cell time SPREAD (max − min across the
	// Repeat samples; zero when Repeat <= 1): the run-to-run variance the
	// medians in CellTime are taming, surfaced so a BENCH_*.json reader can
	// judge how trustworthy each cell time is on a noisy single-core runner.
	CellSpread time.Duration
}

// Run executes the selected experiments (nil or empty = the full suite) and
// returns their results in suite order. An unknown ID fails the whole run.
func (r Runner) Run(ids []string) ([]Result, error) {
	specs, err := specsFor(ids, r.Opts)
	if err != nil {
		return nil, err
	}

	type slot struct {
		out    cellOut
		dur    time.Duration
		spread time.Duration
	}
	cells := make([][]slot, len(specs))
	type job struct{ e, c int }
	var jobs []job
	for i, s := range specs {
		cells[i] = make([]slot, len(s.cells))
		for c := range s.cells {
			jobs = append(jobs, job{i, c})
		}
	}

	repeat := r.Repeat
	if repeat < 1 {
		repeat = 1
	}
	runJob := func(j job) {
		// Repetitions only steady the timing: the first run's rows are the
		// cell's rows.
		durs := make([]time.Duration, repeat)
		var out cellOut
		for rep := range durs {
			start := time.Now()
			o := specs[j.e].cells[j.c]()
			durs[rep] = time.Since(start)
			if rep == 0 {
				out = o
			}
		}
		cells[j.e][j.c] = slot{out: out, dur: median(durs), spread: spread(durs)}
	}
	if w := workers(r.Parallel); w <= 1 {
		for _, j := range jobs {
			runJob(j)
		}
	} else {
		feed := make(chan job)
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range feed {
					runJob(j)
				}
			}()
		}
		for _, j := range jobs {
			feed <- j
		}
		close(feed)
		wg.Wait()
	}

	results := make([]Result, len(specs))
	for i, s := range specs {
		res := Result{Table: s.shell, Cells: len(s.cells)}
		for _, sl := range cells[i] {
			res.Table.Rows = append(res.Table.Rows, sl.out.rows...)
			res.Steps += sl.out.steps
			res.CellTime += sl.dur
			res.CellSpread += sl.spread
		}
		results[i] = res
	}
	return results, nil
}

// median returns the median duration (mean of the middle two for even
// counts). The input is sorted in place.
func median(durs []time.Duration) time.Duration {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	n := len(durs)
	if n%2 == 1 {
		return durs[n/2]
	}
	return (durs[n/2-1] + durs[n/2]) / 2
}

// spread returns max − min of the samples (zero for fewer than two): the
// per-cell time-spread column of the repro-bench/4 report. Call after median
// (which leaves durs sorted); a single sample has no spread to report.
func spread(durs []time.Duration) time.Duration {
	if len(durs) < 2 {
		return 0
	}
	return durs[len(durs)-1] - durs[0]
}
