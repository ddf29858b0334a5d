package main

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTracedStackMatchesReplicaStack pins that the traced run measures the
// same program: at a fixed seed, the shimmed stack composed from public
// constructors gives the same tick histograms, message count, rebuild count,
// read results and final snapshots as core.ReplicaStackWith, on both sim
// workloads (shortened so the test stays quick under -race).
func TestTracedStackMatchesReplicaStack(t *testing.T) {
	for name, writes := range map[string]int{"sim-history": 300, "sim-hostile": 400} {
		t.Run(name, func(t *testing.T) {
			spec := simSpecs[name]
			spec.writes = writes
			plain := runSimTrial(spec, 42, 1, nil)
			tc := newTracer()
			traced := runSimTrial(spec, 42, 1, tc)
			for _, r := range []simTrial{plain, traced} {
				if r.err != nil {
					t.Fatalf("trial failed its checks: %v", r.err)
				}
				if r.unresolved != 0 {
					t.Fatalf("%d writes unresolved", r.unresolved)
				}
			}
			if !slices.Equal(plain.visTicks, traced.visTicks) || !slices.Equal(plain.stTick, traced.stTick) {
				t.Errorf("tick latencies differ between the plain and the traced stack")
			}
			if plain.msgs != traced.msgs || plain.steps != traced.steps {
				t.Errorf("messages/steps: plain %d/%d, traced %d/%d", plain.msgs, plain.steps, traced.msgs, traced.steps)
			}
			if plain.rebuilds != traced.rebuilds {
				t.Errorf("rebuilds: plain %d, traced %d", plain.rebuilds, traced.rebuilds)
			}
			if plain.fingerprint != traced.fingerprint {
				t.Errorf("fingerprints (latencies, reads, messages, rebuilds, snapshots) differ")
			}
			self, _, top := tc.selfTimes(func(int32) int { return -1 }, 0)
			for _, l := range []layer{layerRetransmit, layerSMR, layerETOB, layerMachine} {
				if self[l] <= 0 {
					t.Errorf("layer %s recorded no self time", layerNames[l])
				}
			}
			if top <= 0 || top > traced.wall.Nanoseconds() {
				t.Errorf("time inside the stack %d ns, run wall %d ns", top, traced.wall.Nanoseconds())
			}
			if name == "sim-hostile" && plain.rebuilds == 0 {
				t.Errorf("hostile trial rebuilt no replica; the rebuild path went untested")
			}
		})
	}
}

// TestSimDeterministic pins the determinism gate's premise: one seed, one
// fingerprint.
func TestSimDeterministic(t *testing.T) {
	spec := simSpecs["sim-hostile"]
	spec.writes = 200
	a, b := runSimTrial(spec, 7, 1, nil), runSimTrial(spec, 7, 1, nil)
	if a.fingerprint != b.fingerprint {
		t.Fatal("two runs at one seed differ")
	}
	if c := runSimTrial(spec, 8, 1, nil); c.fingerprint == a.fingerprint {
		t.Fatal("two seeds gave identical runs")
	}
}

// TestInputChecks pins the correctness checks the benchmark applies to the
// program's outputs.
func TestInputChecks(t *testing.T) {
	s := genSchedule(3, 2, 2, 50, 0, 1e9)
	if len(s.writes) != 50 || s.reads == 0 {
		t.Fatalf("schedule: %d writes, %d reads", len(s.writes), s.reads)
	}
	for i, w := range s.writes {
		if got, ok := writeIndex(w.command()); !ok || got != i {
			t.Fatalf("writeIndex(%q) = %d, %v", w.command(), got, ok)
		}
	}
	w := s.writes[7]
	if !validRead(s.writes, w.key, "7") || !validRead(s.writes, w.key, "") {
		t.Error("a value written to the key was rejected")
	}
	for i, x := range s.writes {
		if x.key != w.key && validRead(s.writes, w.key, strconv.Itoa(i)) {
			t.Errorf("value %d of key k%d accepted for key k%d", i, x.key, w.key)
			break
		}
	}
	if validRead(s.writes, w.key, "999") || validRead(s.writes, w.key, "x") {
		t.Error("a value never written was accepted")
	}
	if lookup("k1=5,k12=7", "k12") != "7" || lookup("k1=5,k12=7", "k2") != "" {
		t.Error("lookup")
	}
	ws := []op{{write: true, key: 1, val: 0}, {write: true, key: 2, val: 1}, {write: true, key: 1, val: 2}}
	for _, c := range []struct {
		snaps []string
		ok    bool
	}{
		{[]string{"k1=2,k2=1", "k1=2,k2=1"}, true},
		{[]string{"k1=0,k2=1", "k1=0,k2=1"}, true},
		{[]string{"k1=2,k2=1", "k1=0,k2=1"}, false}, // replicas differ
		{[]string{"k1=1,k2=1", "k1=1,k2=1"}, false}, // 1 was written to k2, not k1
		{[]string{"k1=2", "k1=2"}, false},           // k2 lost
		{[]string{"k1=2,k3=1", "k1=2,k3=1"}, false}, // k3 never written
	} {
		if err := checkFinal(ws, ws, c.snaps); (err == nil) != c.ok {
			t.Errorf("checkFinal(%q) = %v", c.snaps, err)
		}
	}
}

// TestLiveTrial runs one short traced live-kv cluster: the observer, the
// wrapped machine and the codec probe are reached from every replica's event
// loop at once, which -race checks. The replicas tick every 10 ms instead
// of 2 ms: under the race detector's slowdown, 2 ms loops overflow their
// inboxes, lose heartbeats and stay split-brained (every replica its own
// leader, all degraded) past the settle time. Refusals (503, degraded mode)
// are the service's overload behaviour and are logged, not failed.
func TestLiveTrial(t *testing.T) {
	res, lm, probe := runLiveTrial(5, time.Second, 10*time.Millisecond, true)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.httpErrors > 0 {
		t.Logf("%d of %d requests refused (first: %v)", res.httpErrors, res.writes+res.reads, res.firstHTTPErr)
	}
	if res.writes == 0 || res.resolved < res.accepted || res.badReads != 0 {
		t.Fatalf("%d writes, %d visible, %d refused, %d bad reads", res.writes, res.resolved, res.httpErrors, res.badReads)
	}
	if lm.applies < int64(res.resolved)*liveProcs || probe.frames == 0 || probe.updates == 0 {
		t.Errorf("traced sources saw %d applies, %d frames, %d updates", lm.applies, probe.frames, probe.updates)
	}
	if res.scrape[obs.MetricNodeAccepted] < int64(res.resolved) {
		t.Errorf("scrape: node_accepted_total %d, want >= %d", res.scrape[obs.MetricNodeAccepted], res.resolved)
	}
}
