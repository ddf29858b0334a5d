// Package gossip provides the mechanics of epidemic dissemination for ETOB's
// gossip mode (internal/etob GossipFactory): configuration (anti-entropy
// cadence and seed; fanout and rumor aging derived from n) and a
// deterministic per-process peer sampler.
//
// Rationale (ROADMAP "Big-n scaling"): the paper's Algorithm 5 writes "send
// update(CG_i) to all", which costs n−1 envelopes per invocation — O(n²)
// envelopes per protocol round systemwide, the first thing that breaks at
// n in the hundreds. The algorithm, however, only requires that updates
// EVENTUALLY reach every correct process (they carry monotone causality
// graphs): it needs no physical all-to-all round. That is
// exactly the delivery guarantee epidemic protocols give: a rumor pushed to
// O(log n) random peers per hop reaches all n processes in O(log n) hops
// with high probability [cf. Demers et al., PODC 87; Aspnes, Notes on Theory
// of Distributed Systems, ch. "Epidemic protocols"], and a slow round-robin
// anti-entropy pass repairs the o(1) tail deterministically, turning "with
// high probability" into "always, eventually".
//
// The package deliberately contains no protocol logic: the automaton owns
// its rumor format and absorption rule (etob forwards dependency-closed
// graph deltas) and uses this package only for WHO to send to and WHEN to
// stop forwarding.
//
// Determinism: each process draws peers from its own PRNG stream, seeded
// from (Options.Seed, ProcID). The kernel steps automata in a reproducible
// order, so every draw — and therefore every trace — is a pure function of
// the run's seeds, preserving the simulator's bit-for-bit replay guarantee.
package gossip

import (
	"math/rand"

	"repro/internal/model"
)

// Options configures an automaton's gossip dissemination mode. Building the
// automaton through its gossip factory is what turns the mode on; the
// fanout and rumor age bound are derived from the system size (Fanout,
// MaxAge).
type Options struct {
	// AntiEntropyEvery is the number of local timeouts (ticks) between
	// full-state exchanges with the next round-robin peer — the
	// deterministic repair channel that upgrades the rumor phase's
	// with-high-probability coverage to guaranteed eventual delivery.
	// 0 means every 4 ticks.
	AntiEntropyEvery int
	// Seed is the base seed of the per-process sampling streams. Two runs
	// with equal seeds draw identical peer samples.
	Seed int64
}

// WithDefaults resolves the zero fields.
func (o Options) WithDefaults() Options {
	if o.AntiEntropyEvery <= 0 {
		o.AntiEntropyEvery = 4
	}
	return o
}

// Fanout is the number of distinct peers each rumor emission is pushed to
// in a system of n processes: ceil(log2 n) + 1, the classical epidemic
// fanout that infects all n processes in O(log n) hops w.h.p.
func Fanout(n int) int { return log2Ceil(n) + 1 }

// MaxAge is the rumor age bound in a system of n processes: a rumor
// arriving with age a is re-forwarded at age a+1 only while a+1 <= MaxAge,
// after which it goes quiet and the anti-entropy pass owns its remaining
// spread. It is ceil(log2 n) hops.
func MaxAge(n int) int { return log2Ceil(n) }

// log2Ceil returns ceil(log2 n) for n >= 1 (0 for n <= 1).
func log2Ceil(n int) int {
	k, pow := 0, 1
	for pow < n {
		k++
		pow <<= 1
	}
	return k
}

// Sampler draws peer samples for one process from a seeded stream. Not safe
// for concurrent use; each automaton owns one.
type Sampler struct {
	peers   []model.ProcID // every process except the owner, ascending
	fanout  int
	rng     *rand.Rand
	rot     int            // anti-entropy round-robin cursor
	scratch []model.ProcID // reused by Sample
}

// NewSampler returns the sampler for process self of n, drawing Fanout(n)
// peers per sample from a stream derived from seed.
func NewSampler(self model.ProcID, n int, seed int64) *Sampler {
	peers := make([]model.ProcID, 0, n-1)
	for _, p := range model.Procs(n) {
		if p != self {
			peers = append(peers, p)
		}
	}
	// Distinct stream per process: mix the ProcID into the seed with a large
	// odd multiplier so adjacent seeds do not collide across processes.
	src := rand.NewSource(seed*0x9E3779B1 + int64(self))
	return &Sampler{peers: peers, fanout: Fanout(n), rng: rand.New(src)}
}

// Sample returns fanout distinct peers drawn from this process's stream (all
// peers when fanout >= n−1). The returned slice is reused by the next call;
// callers must not retain it.
func (s *Sampler) Sample() []model.ProcID {
	if s.fanout >= len(s.peers) {
		return s.peers
	}
	if s.scratch == nil {
		s.scratch = make([]model.ProcID, len(s.peers))
	}
	copy(s.scratch, s.peers)
	// Partial Fisher–Yates: the first fanout positions are a uniform sample
	// without replacement.
	for i := 0; i < s.fanout; i++ {
		j := i + s.rng.Intn(len(s.scratch)-i)
		s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i]
	}
	return s.scratch[:s.fanout]
}

// NextPeer returns the next anti-entropy partner in round-robin order,
// covering every peer once per len(peers) calls. ok is false for n = 1.
func (s *Sampler) NextPeer() (model.ProcID, bool) {
	if len(s.peers) == 0 {
		return 0, false
	}
	p := s.peers[s.rot%len(s.peers)]
	s.rot++
	return p, true
}
