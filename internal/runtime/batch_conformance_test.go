package runtime_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/smr"
	"repro/internal/trace"
)

// TestTCPBatchedTraceConformance pins batch boundaries under the conformance
// oracle: the full Eventual stack with ETOB batching enabled (k>1) runs live
// over TCP with every step recorded, then the StepLog replays through fresh
// automata from the same batched factory — identical emissions at every step.
// Batching adds sender-local state (the pending queue) that the oracle would
// expose immediately if it ever made a flush decision from anything outside
// the recorded step schedule.
func TestTCPBatchedTraceConformance(t *testing.T) {
	const n, updates = 3, 18
	log := &trace.StepLog{}
	factory := core.ReplicaStackWith(core.Eventual, core.StackOptions{
		Retransmit: &retransmit.Options{Seed: 7},
		Batch:      etob.BatchOptions{MaxBatch: 4},
	})

	peers := make(map[model.ProcID]string, n)
	var reserved []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		peers[model.ProcID(i+1)] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}

	procs := make([]*runtime.Proc, n)
	for i := 0; i < n; i++ {
		p := model.ProcID(i + 1)
		var tr *runtime.TCPTransport
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			tr, err = runtime.NewTCPTransport(runtime.TCPConfig{Self: p, Peers: peers})
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("bind %v: %v", p, err)
		}
		procs[i] = runtime.NewProc(tr, factory, runtime.Options{StepLog: log})
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
			<-p.Done()
		}
	}()

	// Burst submissions — six per replica back to back — so batches fill by
	// depth as well as drain by linger: both flush triggers land in the log.
	want := make(map[string]string, updates)
	for i := 0; i < updates; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if !procs[i%n].Submit(smr.Command{Cmd: "set " + k + " " + v}) {
			t.Fatalf("submit %d rejected", i)
		}
		if i%n == n-1 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	snapshot := func(p *runtime.Proc) (snap string, applied int) {
		p.Inspect(func(a model.Automaton) {
			r := core.UnwrapReplica(a)
			snap, applied = r.Snapshot(), r.AppliedCount()
		})
		return
	}
	converged := func() bool {
		ref, applied := snapshot(procs[0])
		if applied < updates || ref == "" {
			return false
		}
		for _, p := range procs[1:] {
			got, gotApplied := snapshot(p)
			if got != ref || gotApplied < updates {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			s1, _ := snapshot(procs[0])
			s2, _ := snapshot(procs[1])
			s3, _ := snapshot(procs[2])
			t.Fatalf("batched replicas did not converge over TCP:\n p1: %s\n p2: %s\n p3: %s", s1, s2, s3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ref, _ := snapshot(procs[0])
	for k, v := range want {
		if wantPair := k + "=" + v; !containsPair(ref, wantPair) {
			t.Fatalf("converged snapshot %q missing %q", ref, wantPair)
		}
	}

	// The run must actually have batched — a k=1-shaped log would make this
	// test a duplicate of TestTCPTraceConformance.
	var flushes, ops int64
	for _, p := range procs {
		p.Inspect(func(a model.Automaton) {
			if b, okB := core.UnwrapReplica(a).Inner().(interface{ BatchStats() etob.BatchStats }); okB {
				st := b.BatchStats()
				flushes += st.Flushes
				ops += st.Ops
			}
		})
	}
	if ops != updates {
		t.Fatalf("batch layers saw %d ops, want %d", ops, updates)
	}
	if flushes == 0 || flushes >= ops {
		t.Fatalf("%d flushes for %d ops — the run never coalesced, so batch boundaries go unexercised", flushes, ops)
	}
	t.Logf("batching in the recorded run: %d ops in %d flushes", ops, flushes)

	for _, p := range procs {
		p.Stop()
		<-p.Done()
	}
	if log.Len() == 0 {
		t.Fatal("no steps recorded")
	}

	if err := runtime.Replay(n, factory, log); err != nil {
		t.Fatalf("batched live run does not conform to the deterministic kernel semantics:\n%v", err)
	}
}
