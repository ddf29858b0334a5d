package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// trialSeed derives trial i's input seed from the run seed.
func trialSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// envSeed is trial i's environment seed (sim network and resend jitter). It
// does not depend on the run seed: runs differ in their inputs only, and
// trial i of every run meets the same network.
func envSeed(i int) int64 { return int64(i) + 1 }

// runSim runs as many trials of a sim workload as nominally fill the run's
// seconds, then checks determinism by re-running the first. The count does
// not depend on the host's speed, so every run at every seed meets the same
// trial environments. A traced run pairs each untraced trial with a traced
// one at the same seeds, in half as many pairs.
func runSim(cfg runConfig, spec simSpec, rep *report) {
	trials := max(1, int(cfg.seconds/spec.trialSecs+0.5))
	if cfg.trace {
		trials = max(1, trials/2)
	}
	var plain, traced []simTrial
	layers := map[string][]float64{}
	for i := 0; i < trials; i++ {
		tr := runSimTrial(spec, trialSeed(cfg.seed, i), envSeed(i), nil)
		plain = append(plain, tr)
		if cfg.trace {
			tc := newTracer()
			tt := runSimTrial(spec, trialSeed(cfg.seed, i), envSeed(i), tc)
			if tt.fingerprint != tr.fingerprint {
				rep.fail("trial %d: traced stack diverged from core.ReplicaStackWith", i)
			}
			traced = append(traced, tt)
			if tt.err == nil {
				simLayers(spec, tt, tc, layers)
			}
			// Each traced trial's spans overwrite the previous dump, so no
			// tracer outlives its trial (and inflates the next heap figure).
			if err := dumpSpans(cfg, tc); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
			}
		}
		if tr.err != nil || (cfg.trace && traced[len(traced)-1].err != nil) {
			break
		}
	}
	if again := runSimTrial(spec, trialSeed(cfg.seed, 0), envSeed(0), nil); again.fingerprint != plain[0].fingerprint {
		rep.fail("sim tick metrics differ between two runs at seed %d", trialSeed(cfg.seed, 0))
	}
	for i, t := range append(append([]simTrial(nil), plain...), traced...) {
		rep.attempted += t.writes + t.reads
		rep.failed += t.unresolved + t.badReads
		if t.err != nil {
			rep.fail("trial %d: %v", i%len(plain), t.err)
		}
	}
	if !cfg.trace {
		for _, m := range simEndToEnd(plain) {
			rep.add(m.name, m.unit, m.value)
		}
		return
	}
	addTails(layers, simTails(plain))
	reportLayers(rep, layers)
	addOverhead(rep, simEndToEnd(plain), simEndToEnd(traced))
}

// medianOver is the median of f over trials.
func medianOver[T any](ts []T, f func(T) float64) float64 {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = f(t)
	}
	return median(v)
}

// simEndToEnd computes the end-to-end metrics: medians over trials. Tick
// metrics are exact, so they repeat exactly at one seed.
func simEndToEnd(ts []simTrial) []metric {
	attempted, failed := 0, 0
	for _, t := range ts {
		attempted += t.writes + t.reads
		failed += t.unresolved + t.badReads
	}
	return []metric{
		{"setup_s", "s", medianOver(ts, func(t simTrial) float64 { return t.setup.Seconds() })},
		{"ops_per_s", "1/s", medianOver(ts, func(t simTrial) float64 { return float64(t.writes-t.unresolved) / t.wall.Seconds() })},
		{"cpu_us_per_op", "us", medianOver(ts, func(t simTrial) float64 { return float64(t.cpu.Microseconds()) / float64(t.writes) })},
		{"heap_mb", "MiB", medianOver(ts, func(t simTrial) float64 { return t.heapMB })},
		{"ok_frac", "ratio", 1 - float64(failed)/float64(max(attempted, 1))},
		{"visible_p50_ticks", "ticks", medianOver(ts, func(t simTrial) float64 { return float64(quantile(t.visTicks, 0.5)) })},
		{"visible_p50_ms", "ms", medianOver(ts, func(t simTrial) float64 { return quantile(t.visMS, 0.5) })},
		{"read_p50_ms", "ms", medianOver(ts, func(t simTrial) float64 { return quantile(t.readMS, 0.5) })},
	}
}

// simTails computes the p99 figures, medians over trials.
func simTails(ts []simTrial) map[string]float64 {
	return map[string]float64{
		"tail.visible_p99_ticks": medianOver(ts, func(t simTrial) float64 { return float64(quantile(t.visTicks, 0.99)) }),
		"tail.stable_p99_ticks":  medianOver(ts, func(t simTrial) float64 { return float64(quantile(t.stTick, 0.99)) }),
		"tail.visible_p99_ms":    medianOver(ts, func(t simTrial) float64 { return quantile(t.visMS, 0.99) }),
		"tail.read_p99_ms":       medianOver(ts, func(t simTrial) float64 { return quantile(t.readMS, 0.99) }),
	}
}

// addTails adds a run's p99 figures to the per-layer values.
func addTails(vals map[string][]float64, tails map[string]float64) {
	for name, v := range tails {
		vals[name] = append(vals[name], v)
	}
}

// reportLayers reports every per-layer metric: the median of its values, 0
// where the workload does not run the layer.
func reportLayers(rep *report, vals map[string][]float64) {
	for _, m := range perLayer {
		rep.add(m.name, m.unit, median(vals[m.name]))
	}
}

// addOverhead reports traced minus untraced for every end-to-end metric.
func addOverhead(rep *report, plain, traced []metric) {
	for i, m := range plain {
		rep.add("trace_overhead."+m.name, m.unit, traced[i].value-m.value)
	}
}

// simLayers adds one traced trial's per-layer metrics to vals.
func simLayers(spec simSpec, t simTrial, tc *tracer, vals map[string][]float64) {
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	{
		w := float64(t.writes)
		q1, q3 := t.arrivals[len(t.arrivals)/4], t.arrivals[3*len(t.arrivals)/4]
		last := t.arrivals[len(t.arrivals)-1]
		window := func(tick int32) int {
			switch {
			case tick < q1:
				return 0
			case tick >= q3 && tick <= last:
				return 1
			}
			return -1
		}
		self, byWin, top := tc.selfTimes(window, 2)
		us := func(ns int64) float64 { return float64(ns) / 1e3 / w }
		quarterOps := float64(len(t.arrivals) / 4)
		growth := 0.0
		if early := float64(byWin[0][layerETOB]) / quarterOps; early > 0 {
			growth = float64(byWin[1][layerETOB]) / float64(len(t.arrivals)-3*len(t.arrivals)/4) / early
		}
		var resends, dupes int64
		for _, r := range tc.retransmits {
			resends += r.Resends()
			dupes += r.Duplicates()
		}
		put("etob.self_us_per_op", us(self[layerETOB]))
		put("etob.cost_growth", growth)
		put("etob.update_bytes_per_op", float64(tc.updateBytes)/w)
		put("etob.promote_len_p50", float64(quantile(tc.promoteLens, 0.5)))
		put("etob.msgs_per_op", float64(tc.etobMsgs)/w)
		put("etob.ops_per_flush", w/float64(max(tc.updates, 1)))
		converge := 0.0
		if t.lastRewrite >= 0 {
			converge = float64(t.lastRewrite - spec.tauOmega)
		}
		put("etob.converge_ticks", converge)
		put("retransmit.self_us_per_op", us(self[layerRetransmit]))
		put("retransmit.envelopes_per_op", float64(tc.envelopes)/w)
		put("retransmit.resends_per_op", float64(resends)/w)
		put("retransmit.dup_ratio", float64(dupes)/float64(max(tc.delivered, 1)))
		put("retransmit.pending_max", float64(tc.pendingMax))
		put("smr.self_us_per_op", us(self[layerSMR]))
		put("smr.apply_us_per_op", us(self[layerMachine]))
		put("smr.rebuilds", float64(t.rebuilds))
		put("smr.reapply_ratio", float64(tc.applies)/(w*float64(spec.procs)))
		put("smr.snapshot_us_per_read", 1e3*mean(t.readMS))
		put("sim.self_us_per_op", us(t.wall.Nanoseconds()-top+self[layerSim]))
		put("sim.steps_per_op", float64(t.steps)/w)
		put("sim.msgs_per_op", float64(t.msgs)/w)
		put("go.gc_cpu_frac", t.gc.frac())
	}
}

// spanDir is where traced runs leave their spans, under the checkout root
// the benchmark runs from (run.sh keeps its build there too).
const spanDir = ".bench_build"

// dumpSpans writes a traced trial's spans as TSV (one span a line).
func dumpSpans(cfg runConfig, tc *tracer) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, "spans-"+cfg.workload+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tlayer\ttick\tstart_ns\tend_ns")
	for i, s := range tc.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, layerNames[s.layer], s.tick, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
