package gossip

import (
	"testing"

	"repro/internal/model"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 16: 4, 17: 5, 64: 6, 256: 8, 1000: 10}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	if f, a := Fanout(256), MaxAge(256); f != 9 || a != 8 {
		t.Errorf("at n=256: fanout %d, max age %d, want 9 and 8", f, a)
	}
	if o := (Options{}).WithDefaults(); o.AntiEntropyEvery != 4 {
		t.Errorf("default anti-entropy period %d, want 4", o.AntiEntropyEvery)
	}
	if o := (Options{AntiEntropyEvery: 16}).WithDefaults(); o.AntiEntropyEvery != 16 {
		t.Errorf("explicit anti-entropy period must survive WithDefaults: %+v", o)
	}
}

// TestSamplerDeterministicDistinct: equal seeds replay the identical sample
// stream; every sample holds fanout distinct peers, never the owner.
func TestSamplerDeterministicDistinct(t *testing.T) {
	const n = 64
	a := NewSampler(3, n, 7)
	b := NewSampler(3, n, 7)
	other := NewSampler(4, n, 7)
	diverged := false
	for round := 0; round < 50; round++ {
		sa, sb, so := a.Sample(), b.Sample(), other.Sample()
		if len(sa) != Fanout(n) {
			t.Fatalf("round %d: sample size %d, want %d", round, len(sa), Fanout(n))
		}
		seen := make(map[model.ProcID]bool, len(sa))
		for i, p := range sa {
			if p == 3 {
				t.Fatalf("round %d: sampler included its owner", round)
			}
			if seen[p] {
				t.Fatalf("round %d: duplicate peer %v in sample", round, p)
			}
			seen[p] = true
			if p != sb[i] {
				t.Fatalf("round %d: equal seeds diverged at position %d: %v vs %v", round, i, p, sb[i])
			}
			if p != so[i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("two different processes drew identical streams for 50 rounds — per-process seeding is broken")
	}
}

// TestSamplerSmallN: fanout >= n−1 (Fanout(3) = 3) degenerates to all
// peers, and n=1 has no anti-entropy partner.
func TestSamplerSmallN(t *testing.T) {
	s := NewSampler(1, 3, 0)
	if got := s.Sample(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("fanout >= n-1 must return all peers, got %v", got)
	}
	if _, ok := NewSampler(1, 1, 0).NextPeer(); ok {
		t.Error("n=1 must have no anti-entropy partner")
	}
}

// TestNextPeerRoundRobin: one rotation covers every peer exactly once — the
// property the eventual-delivery argument rests on.
func TestNextPeerRoundRobin(t *testing.T) {
	const n = 16
	s := NewSampler(5, n, 1)
	seen := make(map[model.ProcID]int)
	for i := 0; i < n-1; i++ {
		p, ok := s.NextPeer()
		if !ok {
			t.Fatal("NextPeer returned !ok with peers available")
		}
		seen[p]++
	}
	for _, p := range model.Procs(n) {
		if p == 5 {
			continue
		}
		if seen[p] != 1 {
			t.Errorf("rotation visited %v %d times, want exactly 1", p, seen[p])
		}
	}
}
