package etob

import (
	"fmt"
	"testing"

	"sync"

	"repro/internal/fd"
	"repro/internal/gossip"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

func gossipPreset(seed int64) gossip.Options {
	return gossip.Options{Seed: seed}
}

func runGossipETOB(t *testing.T, n, perProc int, g gossip.Options, horizon model.Time, seed int64) *trace.Recorder {
	t.Helper()
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	rec := trace.NewRecorder(n)
	k := sim.New(fp, det, GossipFactory(g), sim.Options{Seed: seed})
	k.SetObserver(rec)
	scheduleBroadcasts(k, n, perProc, 20, 40)
	k.Run(horizon)
	return rec
}

// TestGossipETOBConverges: with O(log n) dissemination instead of
// all-to-all, every broadcast still reaches every process (anti-entropy
// guarantees delivery) and the full ETOB spec holds.
func TestGossipETOBConverges(t *testing.T) {
	const n, perProc = 16, 4
	rec := runGossipETOB(t, n, perProc, gossipPreset(7), 30000, 7)
	rep := trace.CheckETOB(rec, model.Procs(n), trace.CheckOptions{InputCutoff: 4000, SettleTime: 25000})
	if !rep.OK() {
		t.Fatalf("ETOB spec violated under gossip: %+v", rep)
	}
	for _, p := range model.Procs(n) {
		if got := len(rec.FinalSeq(p)); got != n*perProc {
			t.Errorf("%v delivered %d messages, want %d", p, got, n*perProc)
		}
	}
}

// TestGossipCausalDeltasStayClosed: explicit cross-process dependencies
// force rumors whose deps may be missing at the receiver; the closure check
// must keep every CG dependency-closed (no UpdatePromote panic) and the
// causal order must hold in every delivered sequence.
func TestGossipCausalDeltasStayClosed(t *testing.T) {
	const n = 8
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	rec := trace.NewRecorder(n)
	k := sim.New(fp, det, GossipFactory(gossipPreset(3)), sim.Options{Seed: 3})
	k.SetObserver(rec)
	// A chain of dependent ops from one origin (Algorithm 5's precondition:
	// C(m) ⊆ CG_i at the broadcaster — p1 has each parent locally). Distinct
	// rumors take distinct peer paths, so receivers routinely see the child
	// rumor before the parent and must drop it for anti-entropy to repair.
	for i := 1; i <= 12; i++ {
		var deps []string
		if i > 1 {
			deps = []string{fmt.Sprintf("c%d", i-1)}
		}
		k.ScheduleInput(1, model.Time(20+i*15), model.BroadcastInput{ID: fmt.Sprintf("c%d", i), Deps: deps})
	}
	k.Run(30000)
	rep := trace.CheckETOB(rec, model.Procs(n), trace.CheckOptions{InputCutoff: 1000, SettleTime: 25000})
	if !rep.OK() {
		t.Fatalf("causal chain under gossip: %+v", rep)
	}
	for _, p := range model.Procs(n) {
		seq := rec.FinalSeq(p)
		if len(seq) != 12 {
			t.Fatalf("%v delivered %d of 12 chained ops", p, len(seq))
		}
		pos := make(map[string]int, len(seq))
		for i, id := range seq {
			pos[id] = i
		}
		for i := 2; i <= 12; i++ {
			if pos[fmt.Sprintf("c%d", i-1)] > pos[fmt.Sprintf("c%d", i)] {
				t.Fatalf("%v delivered c%d before its dependency c%d", p, i, i-1)
			}
		}
	}
}

// gossipCountObs counts envelopes by payload kind.
type gossipCountObs struct {
	rumor, update, digest, promote int
}

func (o *gossipCountObs) OnSend(_ model.Time, m sim.Message) {
	switch m.Payload.(type) {
	case GossipMsg:
		o.rumor++
	case UpdateMsg:
		o.update++
	case DigestMsg:
		o.digest++
	case PromoteMsg:
		o.promote++
	}
}
func (o *gossipCountObs) OnDeliver(model.Time, sim.Message)      {}
func (o *gossipCountObs) OnOutput(model.ProcID, model.Time, any) {}
func (o *gossipCountObs) OnInput(model.ProcID, model.Time, any)  {}

// TestGossipFanoutBound: at n=64 a flush emits exactly Fanout =
// ceil(log2 n)+1 = 7 rumor envelopes (not n−1 = 63), and total rumor
// traffic per op stays well under one all-to-all round.
func TestGossipFanoutBound(t *testing.T) {
	const n, perProc = 64, 2
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	obs := &gossipCountObs{}
	k := sim.New(fp, det, GossipFactory(gossipPreset(5)), sim.Options{Seed: 5})
	k.SetObserver(obs)
	scheduleBroadcasts(k, n, perProc, 20, 40)
	k.Run(12000)

	wantFanout := gossip.Fanout(n) // 7 at n=64
	ops := n * perProc
	var rumors, repairs int64
	for _, p := range model.Procs(n) {
		st := k.Automaton(p).(*Automaton).GossipStats()
		rumors += st.Rumors
		repairs += st.Repairs
	}
	// Every GossipMsg envelope is either one of a rumor emission's Fanout
	// sends or a single anti-entropy repair delta — nothing else.
	if want := int(rumors)*wantFanout + int(repairs); obs.rumor != want {
		t.Errorf("rumor envelopes = %d, want emissions(%d) x fanout(%d) + repairs(%d) = %d",
			obs.rumor, rumors, wantFanout, repairs, want)
	}
	// No full-graph update(CG) may travel in gossip mode: anti-entropy is
	// digest + delta, the all-to-all message type disappears entirely.
	if obs.update != 0 {
		t.Errorf("gossip mode sent %d full-graph UpdateMsg envelopes, want 0", obs.update)
	}
	// The O(log n) claim at the sender: a flush costs Fanout = ceil(log2 n)+1
	// envelopes where all-to-all costs n−1.
	if wantFanout >= (n-1)/4 {
		t.Errorf("fanout %d is not O(log n) small against n-1 = %d", wantFanout, n-1)
	}
	// Systemwide, novelty gating (each process re-forwards an op at most
	// once) plus aging must keep the epidemic well under the naive flood of
	// n x fanout envelopes per op.
	perOp := float64(obs.rumor) / float64(ops)
	if flood := float64(n * wantFanout); perOp >= flood/4 {
		t.Errorf("rumor envelopes per op = %.1f, want well under the %.0f flood bound", perOp, flood)
	}
	t.Logf("n=%d: %.1f rumor envelopes/op (sender fanout %d vs all-to-all %d), %d digests, %d repair deltas",
		n, perOp, wantFanout, n-1, obs.digest, repairs)
}

// traceString flattens a recorder-independent event trace for byte-identity
// comparisons.
type traceLog struct{ events []string }

func (o *traceLog) OnSend(t model.Time, m sim.Message) {
	o.events = append(o.events, fmt.Sprintf("S %d %d %v>%v %T %+v", t, m.ID, m.From, m.To, m.Payload, m.Payload))
}
func (o *traceLog) OnDeliver(t model.Time, m sim.Message) {
	o.events = append(o.events, fmt.Sprintf("D %d %d %v>%v", t, m.ID, m.From, m.To))
}
func (o *traceLog) OnOutput(p model.ProcID, t model.Time, v any) {
	o.events = append(o.events, fmt.Sprintf("O %d %v %+v", t, p, v))
}
func (o *traceLog) OnInput(p model.ProcID, t model.Time, v any) {
	o.events = append(o.events, fmt.Sprintf("I %d %v %+v", t, p, v))
}

func gossipTrace(n, perProc int, factory model.AutomatonFactory, horizon model.Time, seed int64) []string {
	fp := model.NewFailurePattern(n)
	det := fd.NewOmegaStable(fp, 1)
	obs := &traceLog{}
	k := sim.New(fp, det, factory, sim.Options{Seed: seed})
	k.SetObserver(obs)
	scheduleBroadcasts(k, n, perProc, 20, 40)
	k.Run(horizon)
	return obs.events
}

// TestGossipTraceDeterminism20Seeds: at n=64, 20 seeds, the gossip preset
// replays byte-identically — peer sampling, rumor coalescing, and
// anti-entropy rotation are all pure functions of the seeds.
func TestGossipTraceDeterminism20Seeds(t *testing.T) {
	const n, perProc = 64, 1
	for seed := int64(1); seed <= 20; seed++ {
		factory := func() model.AutomatonFactory { return GossipFactory(gossipPreset(seed)) }
		a := gossipTrace(n, perProc, factory(), 4000, seed)
		b := gossipTrace(n, perProc, factory(), 4000, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at event %d:\n  a: %s\n  b: %s", seed, i, a[i], b[i])
			}
		}
	}
}

// TestGossipParallelMatchesSerial: 8 gossip kernels at n=64 running
// CONCURRENTLY produce traces byte-identical to the same seeds run one at a
// time. The gossip layer keeps all its state (peer samplers, rumor buffers,
// AE rotation) inside the automaton, so concurrent kernels share nothing;
// run under -race in CI, this also shakes out any hidden package-level
// state. This is the Runner-level parity guarantee the bench suite relies
// on, pinned at the layer that owns the sampling.
func TestGossipParallelMatchesSerial(t *testing.T) {
	const n, perProc, workers = 64, 1, 8
	serial := make([][]string, workers)
	for i := range serial {
		seed := int64(i + 1)
		serial[i] = gossipTrace(n, perProc, GossipFactory(gossipPreset(seed)), 4000, seed)
	}
	parallel := make([][]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i + 1)
			parallel[i] = gossipTrace(n, perProc, GossipFactory(gossipPreset(seed)), 4000, seed)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("seed %d: trace lengths differ: serial %d vs parallel %d", i+1, len(serial[i]), len(parallel[i]))
		}
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("seed %d: traces diverge at event %d:\n  serial:   %s\n  parallel: %s", i+1, j, serial[i][j], parallel[i][j])
			}
		}
	}
}
