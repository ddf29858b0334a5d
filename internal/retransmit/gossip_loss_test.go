package retransmit_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/gossip"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
	"repro/internal/smr"
)

// TestGossipEnvelopesRideRetransmission pins the layering the gossip mode
// depends on: rumor, digest, and repair envelopes are ordinary unicast sends
// from the retransmission wrapper's point of view, so each one rides an
// at-least-once envelope with dedup on the far side. Under ~25% loss a rumor
// that the wire eats is resent — gossip needs no loss handling of its own,
// and the anti-entropy rotation only has to cover rumors that never STARTED
// (sampling gaps), not lost packets. The full Eventual stack (retransmit →
// gossip ETOB → AppendLog) must apply every submitted op exactly once at
// every replica, across 5 seeds.
func TestGossipEnvelopesRideRetransmission(t *testing.T) {
	const n, ops = 8, 16
	for seed := int64(1); seed <= 5; seed++ {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaStable(fp, 1)
		factory := retransmit.Wrap(
			smr.ReplicaFactory(etob.GossipFactory(gossip.Options{Seed: seed}), smr.LogFactory),
			retransmit.Options{Seed: seed})
		k := sim.New(fp, det, factory, sim.Options{
			Seed:    seed,
			Network: func() sim.NetworkModel { return &adversary.Lossy{Drop: 0.25} },
		})
		for i := 0; i < ops; i++ {
			p := model.ProcID(i%n + 1)
			k.ScheduleInput(p, model.Time(100+40*i), smr.Command{Cmd: fmt.Sprintf("op%d", i)})
		}
		k.Run(40000)

		if k.MessagesLost() == 0 {
			t.Fatalf("seed %d: no losses — the network exercised nothing", seed)
		}
		var resends int64
		ref := ""
		for _, p := range model.Procs(n) {
			wrap := k.Automaton(p).(*retransmit.Automaton)
			resends += wrap.Resends()
			rep := core.UnwrapReplica(wrap)
			snap := rep.Snapshot()
			if p == 1 {
				ref = snap
			} else if snap != ref {
				t.Errorf("seed %d: %v snapshot diverges from p1:\n p%v: %q\n p1: %q", seed, p, p, snap, ref)
			}
			counts := map[string]int{}
			for _, line := range strings.Split(snap, "\n") {
				counts[line]++
			}
			for i := 0; i < ops; i++ {
				if got := counts[fmt.Sprintf("op%d", i)]; got != 1 {
					t.Errorf("seed %d: %v applied op%d %d times, want exactly 1", seed, p, i, got)
				}
			}
		}
		if resends == 0 {
			t.Errorf("seed %d: losses occurred but nothing was resent", seed)
		}
	}
}
