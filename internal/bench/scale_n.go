package bench

import (
	"fmt"
	"time"

	"repro/internal/causal"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/gossip"
	"repro/internal/model"
	"repro/internal/sim"
)

// ScalingNResult is one (n, dissemination mode) cell of the En scaling
// experiment: the same ETOB workload — every process broadcasting a fixed
// number of ops — run at growing cluster sizes, once with the paper's
// all-to-all update(CG_i) broadcast and once with the gossip mode, recording
// kernel throughput and the dissemination traffic each mode actually paid.
//
// SendFanout is the analytic claim (envelopes ONE flush costs its sender:
// n−1 all-to-all, ceil(log2 n)+1 gossip); Envelopes/EnvPerOp are the measured
// systemwide totals including forwarding and anti-entropy, and Bytes charges
// each envelope its payload wire size — full O(nodes+edges) graphs in
// all-to-all mode, op deltas and ID digests in gossip mode. Promote traffic
// is excluded: the leader's promote broadcast is identical in both modes and
// would only blur the comparison.
type ScalingNResult struct {
	N    int    `json:"n"`
	Mode string `json:"mode"` // "all-to-all" | "gossip"
	Ops  int    `json:"ops"`
	// DeliveredPct is the fraction of (op, process) deliveries that landed
	// inside the horizon, in percent. Gossip trades bounded per-sender
	// fan-out for anti-entropy repair latency, so its tail can still be in
	// flight when the horizon closes; all-to-all should sit at 100.
	DeliveredPct float64 `json:"delivered_pct"`
	Steps        int64   `json:"steps"`
	WallMS       float64 `json:"wall_ms"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	SendFanout   int     `json:"send_fanout"`
	Envelopes    int64   `json:"envelopes"`
	EnvPerOp     float64 `json:"envelopes_per_op"`
	Bytes        int64   `json:"bytes"`
	BytesPerProc float64 `json:"bytes_per_proc"`
}

// scaleNObs tallies dissemination envelopes and their payload wire bytes,
// and tracks delivery progress (the summed length of every process's d_i)
// so the cell can stop as soon as dissemination completes — a fixed horizon
// would charge gossip mode for anti-entropy heartbeats long after the
// workload is done. UpdateMsg graphs are memoized by pointer: a broadcast
// shares one clone across all n recipients, so WireSize runs once per flush,
// not once per envelope.
type scaleNObs struct {
	envelopes int64
	bytes     int64
	memo      map[*causal.Graph]int
	seqLen    map[model.ProcID]int
	delivered int64
}

func newScaleNObs(n int) *scaleNObs {
	return &scaleNObs{memo: make(map[*causal.Graph]int), seqLen: make(map[model.ProcID]int, n)}
}

func (o *scaleNObs) OnSend(t model.Time, m sim.Message) {
	switch p := m.Payload.(type) {
	case etob.UpdateMsg:
		sz, ok := o.memo[p.CG]
		if !ok {
			sz = p.CG.WireSize()
			o.memo[p.CG] = sz
		}
		o.envelopes++
		o.bytes += int64(sz)
	case etob.GossipMsg:
		sz := 8 // age + framing
		for _, op := range p.Ops {
			sz += len(op.ID)
			for _, d := range op.Deps {
				sz += len(d)
			}
		}
		o.envelopes++
		o.bytes += int64(sz)
	case etob.DigestMsg:
		sz := 0
		for _, id := range p.IDs {
			sz += len(id)
		}
		o.envelopes++
		o.bytes += int64(sz)
	}
}

func (o *scaleNObs) OnDeliver(model.Time, sim.Message) {}
func (o *scaleNObs) OnOutput(p model.ProcID, _ model.Time, v any) {
	if s, ok := v.(model.SeqSnapshot); ok {
		o.delivered += int64(len(s.Seq) - o.seqLen[p])
		o.seqLen[p] = len(s.Seq)
	}
}
func (o *scaleNObs) OnInput(model.ProcID, model.Time, any) {}

// ScaleN runs the En scaling experiment over the given cluster sizes and
// returns two rows per n (all-to-all, then gossip) for the Report's
// "scaling_n" section. quick shrinks the per-process op count; the workload
// and all protocol randomness derive from seed, so everything but the
// wall-clock fields is reproducible.
func ScaleN(ns []int, quick bool, seed int64) []ScalingNResult {
	perProc := 2
	if quick {
		perProc = 1
	}
	var out []ScalingNResult
	for _, n := range ns {
		// AntiEntropyEvery 16 (one digest per 16 local timeouts): the
		// package default of 4 is tuned for fast repair in short tests; at
		// bench horizons it would spend most of its digests on an already
		// converged cluster and bury the rumor traffic being measured.
		gopts := gossip.Options{Seed: seed, AntiEntropyEvery: 16}
		modes := []struct {
			name    string
			factory model.AutomatonFactory
			fanout  int
		}{
			{"all-to-all", etob.Factory(), n - 1},
			{"gossip", etob.GossipFactory(gopts), gossip.Fanout(n)},
		}
		for _, mode := range modes {
			fp := model.NewFailurePattern(n)
			det := fd.NewOmegaStable(fp, 1)
			obs := newScaleNObs(n)
			k := sim.New(fp, det, mode.factory, sim.Options{Seed: seed + int64(n)})
			k.SetObserver(obs)
			// Ops arrive as a staggered stream (one submission per 10 time
			// units round-robin across processes), not one burst: the
			// causality graph must GROW across flushes for the modes to
			// differ — all-to-all re-ships the whole O(nodes+edges) history
			// with every update, deltas don't.
			ops := n * perProc
			for j := 0; j < perProc; j++ {
				for pi, p := range model.Procs(n) {
					at := model.Time(20 + (j*n+pi)*10)
					k.ScheduleInput(p, at, model.BroadcastInput{ID: fmt.Sprintf("b/%v/%d", p, j)})
				}
			}
			window := model.Time(20 + ops*10)
			want := int64(n * ops)
			start := time.Now()
			k.RunUntil(window+20000, func(*sim.Kernel) bool { return obs.delivered >= want })
			wall := time.Since(start)

			r := ScalingNResult{
				N:            n,
				Mode:         mode.name,
				Ops:          ops,
				DeliveredPct: 100 * float64(obs.delivered) / float64(want),
				Steps:        k.Steps(),
				WallMS:       ms(wall),
				SendFanout:   mode.fanout,
				Envelopes:    obs.envelopes,
				EnvPerOp:     float64(obs.envelopes) / float64(ops),
				Bytes:        obs.bytes,
				BytesPerProc: float64(obs.bytes) / float64(n),
			}
			if wall > 0 {
				r.StepsPerSec = float64(r.Steps) / wall.Seconds()
			}
			out = append(out, r)
		}
	}
	return out
}
