package retransmit_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	"repro/internal/sim/adversary"
	"repro/internal/smr"
)

// TestBatchedExactlyOnceUnderBurstyLoss pins the interaction the batching
// layer must not break: a batch rides ONE retransmission envelope, so a
// bursty-lossy wire that eats the envelope eats k ops — and the resend must
// bring back all k, exactly once each, never a partial batch and never a
// duplicated one. The full Eventual stack (retransmit → batched ETOB →
// AppendLog machine) runs over ~30% bursty loss while a receiver restarts
// mid-stream (its state wiped, rebuilt from peer traffic). Afterward every
// process's applied log must hold every submitted op exactly once — checked
// across 10 seeds so the property does not hinge on one loss pattern.
func TestBatchedExactlyOnceUnderBurstyLoss(t *testing.T) {
	const n, ops = 4, 18
	for seed := int64(1); seed <= 10; seed++ {
		fp := model.NewFailurePattern(n)
		det := fd.NewOmegaStable(fp, 1)
		factory := core.ReplicaStackWith(core.Eventual, core.StackOptions{
			Machine:    smr.LogFactory,
			Retransmit: &retransmit.Options{Seed: seed},
			Batch:      etob.BatchOptions{MaxBatch: 4},
		})
		// Receiver p3 loses a window mid-stream: automaton rebuilt from the
		// factory at t=1800, all retransmit/ETOB/machine state gone.
		faults := adversary.NewFaultSchedule(n)
		faults.Down(3, 1200, 1800)
		k := sim.New(fp, det, factory, sim.Options{
			Seed:    seed,
			Network: func() sim.NetworkModel { return &adversary.Lossy{Drop: 0.3, Burst: 3} },
			Faults:  faults,
		})
		// Submit only through processes that never go down — ops queued but
		// unflushed on a crashing process are lost by the durability
		// contract, which is not what this test is about. Bursts of three
		// back-to-back fill batches; stragglers flush by linger. The stream
		// spans the down window and continues after the restart.
		submitters := []model.ProcID{1, 2, 4}
		for i := 0; i < ops; i++ {
			p := submitters[(i/3)%len(submitters)]
			at := model.Time(100 + 150*(i/3) + i%3)
			k.ScheduleInput(p, at, smr.Command{Cmd: fmt.Sprintf("op%d", i)})
		}
		k.Run(40000)

		if k.MessagesLost() == 0 {
			t.Fatalf("seed %d: no losses — the network exercised nothing", seed)
		}
		var resends, flushes, batched int64
		ref := ""
		for _, p := range model.Procs(n) {
			wrap := k.Automaton(p).(*retransmit.Automaton)
			resends += wrap.Resends()
			rep := core.UnwrapReplica(wrap)
			if b, ok := rep.Inner().(interface{ BatchStats() etob.BatchStats }); ok {
				st := b.BatchStats()
				flushes += st.Flushes
				batched += st.Ops
			}
			snap := rep.Snapshot()
			if p == 1 {
				ref = snap
			} else if snap != ref {
				t.Errorf("seed %d: %v snapshot diverges from p1:\n p%v: %q\n p1: %q", seed, p, p, snap, ref)
			}
			// Exactly-once, per op, in the applied log.
			counts := map[string]int{}
			for _, line := range strings.Split(snap, "\n") {
				counts[line]++
			}
			for i := 0; i < ops; i++ {
				if got := counts[fmt.Sprintf("op%d", i)]; got != 1 {
					t.Errorf("seed %d: %v applied op%d %d times, want exactly 1", seed, p, i, got)
				}
			}
			if got := rep.AppliedCount(); got != ops {
				t.Errorf("seed %d: %v applied %d commands, want %d", seed, p, got, ops)
			}
		}
		if resends == 0 {
			t.Errorf("seed %d: losses occurred but nothing was resent", seed)
		}
		// The restarted p3's batch layer is fresh, so compare cluster-wide:
		// the submitters' layers alone make flushes < ops when coalescing
		// works. (batched counts ops that went THROUGH queues; p3's pre-crash
		// counters are lost with its automaton, so ops is a lower bound.)
		if batched < ops {
			t.Errorf("seed %d: batch layers saw %d ops, want >= %d", seed, batched, ops)
		}
		if flushes == 0 || flushes >= batched {
			t.Errorf("seed %d: %d flushes for %d batched ops — never coalesced", seed, flushes, batched)
		}
	}
}
