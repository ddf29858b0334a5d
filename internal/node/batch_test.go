package node_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/etob"
	"repro/internal/node"
)

// TestBatchedClusterConvergesAndReportsStats pins the live-plane batching
// path: replicas configured with Config.Batch queue HTTP-submitted updates at
// the broadcast layer and flush them in windows — fewer update broadcasts
// than commands — while the service still converges on every acked write, and
// /status surfaces the batching and transport-coalescing counters.
func TestBatchedClusterConvergesAndReportsStats(t *testing.T) {
	c := newClusterWith(t, 3, func(cfg *node.Config) {
		cfg.Batch = etob.BatchOptions{MaxBatch: 8}
	})
	waitHealthy(t, c, 3, 10*time.Second)

	const ops = 42
	want := make(map[string]string, ops)
	for i := 0; i < ops; i++ {
		k, v := fmt.Sprintf("bk%d", i), fmt.Sprintf("v%d", i)
		// No pacing: bursts are what fill batch windows.
		if err := c.update(fmt.Sprintf("s%d", i%5), "set "+k+" "+v); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		want[k] = v
	}
	waitConverged(t, c.nodes, ops, want, 60*time.Second)

	var batchOps, batchFlushes int64
	for _, nd := range c.nodes {
		st, err := nodeStatus(nd)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.BatchTarget != 8 {
			t.Errorf("replica %d batch_target = %d, want 8", st.ID, st.BatchTarget)
		}
		if st.BatchQueued != 0 {
			t.Errorf("replica %d still has %d ops queued after convergence", st.ID, st.BatchQueued)
		}
		if st.Flushes == 0 {
			t.Errorf("replica %d transport reports zero writer flushes", st.ID)
		}
		batchOps += st.BatchOps
		batchFlushes += st.BatchFlushes
	}
	if batchOps != ops {
		t.Errorf("cluster batched %d ops, want %d (every accepted command rides the queue)", batchOps, ops)
	}
	if batchFlushes == 0 || batchFlushes >= batchOps {
		t.Errorf("%d flushes for %d ops — batching never coalesced", batchFlushes, batchOps)
	}
	t.Logf("batching: %d ops in %d flushes (mean batch %.1f)", batchOps, batchFlushes, float64(batchOps)/float64(batchFlushes))
}
