package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// runLive boots one cluster per livePhase of the run's seconds, one after
// another, and reports medians over them (tails pooled over them). A traced
// run alternates plain and traced clusters, each pair on the same inputs.
func runLive(cfg runConfig, rep *report) {
	trials := max(1, int(cfg.seconds/livePhase.Seconds()+0.5))
	if cfg.trace {
		trials = max(2, trials/2*2)
	}
	phase := time.Duration(cfg.seconds / float64(trials) * float64(time.Second))
	var plain, traced []liveTrial
	layers := map[string][]float64{}
	for i := 0; i < trials; i++ {
		isTraced, seed := false, trialSeed(cfg.seed, i)
		if cfg.trace {
			isTraced, seed = i%2 == 1, trialSeed(cfg.seed, i/2)
		}
		t, lm, probe := runLiveTrial(seed, phase, liveTick, isTraced)
		rep.attempted += t.writes + t.reads
		rep.failed += t.accepted - t.resolved + t.httpErrors + t.badReads
		if t.err != nil {
			rep.fail("cluster %d: %v", i+1, t.err)
			return
		}
		fmt.Printf("# cluster %d (traced=%v): setup %.2f ms, %d writes, %d reads, visible p50 %.2f ms, read p50 %.2f ms\n",
			i+1, isTraced, ms(t.setup), t.writes, t.reads, quantile(t.visMS, 0.5), quantile(t.readMS, 0.5))
		if isTraced {
			traced = append(traced, t)
			liveLayers(t, lm, probe, layers)
		} else {
			plain = append(plain, t)
		}
	}
	if !cfg.trace {
		for _, m := range liveEndToEnd(plain) {
			rep.add(m.name, m.unit, m.value)
		}
		return
	}
	addTails(layers, liveTails(plain))
	reportLayers(rep, layers)
	addOverhead(rep, liveEndToEnd(plain), liveEndToEnd(traced))
}

// liveEndToEnd computes the end-to-end metrics: medians over clusters.
// Latencies run from each request's due time; visible_p50_ticks expresses
// the write latency in the replicas' 2 ms ticks.
func liveEndToEnd(ts []liveTrial) []metric {
	attempted, failed := 0, 0
	for _, t := range ts {
		attempted += t.writes + t.reads
		failed += t.accepted - t.resolved + t.httpErrors + t.badReads
	}
	visP50 := medianOver(ts, func(t liveTrial) float64 { return quantile(t.visMS, 0.5) })
	return []metric{
		{"setup_s", "s", medianOver(ts, func(t liveTrial) float64 { return t.setup.Seconds() })},
		{"ops_per_s", "1/s", medianOver(ts, func(t liveTrial) float64 { return float64(t.resolved) / t.phase.Seconds() })},
		{"cpu_us_per_op", "us", medianOver(ts, func(t liveTrial) float64 { return float64(t.cpu.Microseconds()) / float64(t.writes) })},
		{"heap_mb", "MiB", medianOver(ts, func(t liveTrial) float64 { return t.heapMB })},
		{"ok_frac", "ratio", 1 - float64(failed)/float64(max(attempted, 1))},
		{"visible_p50_ticks", "ticks", visP50 / ms(liveTick)},
		{"visible_p50_ms", "ms", visP50},
		{"read_p50_ms", "ms", medianOver(ts, func(t liveTrial) float64 { return quantile(t.readMS, 0.5) })},
	}
}

// liveTails computes the p99 figures, each pooled over all clusters.
func liveTails(ts []liveTrial) map[string]float64 {
	var vis, st, rd []float64
	for _, t := range ts {
		vis, st, rd = append(vis, t.visMS...), append(st, t.stMS...), append(rd, t.readMS...)
	}
	tick := ms(liveTick)
	return map[string]float64{
		"tail.visible_p99_ticks": quantile(vis, 0.99) / tick,
		"tail.stable_p99_ticks":  quantile(st, 0.99) / tick,
		"tail.visible_p99_ms":    quantile(vis, 0.99),
		"tail.read_p99_ms":       quantile(rd, 0.99),
	}
}

// liveLayers adds one traced cluster's per-layer metrics to vals, from the
// wrapped machine, the observer's frame counts and codec probe, the final
// scrape of every /metrics, and the client's own timings.
func liveLayers(t liveTrial, lm *liveMachine, c *codecProbe, vals map[string][]float64) {
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	w := float64(t.writes)
	s := t.scrape
	put("etob.update_bytes_per_op", float64(c.updateBytes)/w)
	put("etob.promote_len_p50", float64(quantile(c.promoteLens, 0.5)))
	put("etob.msgs_per_op", float64(c.etobMsgs)/w)
	put("etob.ops_per_flush", w/float64(max(c.updates, 1)))
	put("retransmit.envelopes_per_op", float64(c.envelopes)/w)
	put("retransmit.resends_per_op", float64(s[obs.MetricRetransmitResends])/w)
	put("retransmit.dup_ratio", float64(s[obs.MetricRetransmitDuplicates])/float64(max(c.dataRecv, 1)))
	put("smr.apply_us_per_op", float64(lm.applyNS)/1e3/w)
	put("smr.rebuilds", float64(s[obs.MetricSMRRebuilds]))
	put("smr.reapply_ratio", float64(lm.applies)/(w*liveProcs))
	put("smr.snapshot_us_per_read", float64(lm.snapNS)/1e3/float64(max(lm.snapshots, 1)))
	put("codec.frames_per_op", float64(c.frames)/w)
	put("codec.bytes_per_op", float64(c.bytes)/w)
	put("codec.encode_us_per_frame", float64(c.encodeNS)/1e3/float64(max(c.frames, 1)))
	flushes, coalesced := s[obs.MetricTransportFlushes], s[obs.MetricTransportCoalesced]
	put("runtime.flushes_per_op", float64(flushes)/w)
	put("runtime.coalesce_ratio", float64(coalesced)/float64(max(flushes+coalesced, 1)))
	put("runtime.inbox_dropped", float64(s[obs.MetricTransportInboxDrop]))
	put("runtime.leader_flaps", float64(s[obs.MetricOmegaFlaps]))
	put("node.http_us_p50", float64(s["node_http_p50"]))
	put("node.http_us_p99", float64(s["node_http_p99"]))
	put("node.rejected", float64(s[obs.MetricNodeRejected]))
	put("lb.overhead_us_p50", quantile(t.clientUS, 0.5)-float64(s["node_http_p50"]))
	put("lb.failovers", float64(s["lb:"+obs.MetricLBFailovers]))
	put("go.gc_cpu_frac", t.gc.frac())
	put("gen.late_p99_ms", quantile(t.lateMS, 0.99))
}
