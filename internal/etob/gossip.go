package etob

import (
	"sort"

	"repro/internal/gossip"
	"repro/internal/model"
)

// This file is the gossip dissemination mode of Algorithm 5: replacing the
// "send update(CG_i) to all" of each broadcast with epidemic forwarding of graph
// DELTAS to a seeded O(log n) peer sample. Why this preserves ETOB:
//
//   - The protocol's obligations (§5, Lemma 3) only need every broadcast to
//     EVENTUALLY enter every correct process's CG_j — update messages carry
//     monotone state, so WHEN and VIA WHOM an op arrives is irrelevant to
//     safety, and eventual arrival is all the liveness proof uses.
//   - TOB-Causal-Order rests on every CG_j staying dependency-closed. A full
//     update(CG_i) is closed by construction; a delta is not, so receivers
//     absorb a delta op only when all its dependencies are already present
//     and DROP it otherwise (recvGossip) — the closed-graph invariant that
//     UpdatePromote's correctness needs is maintained unconditionally, and
//     the dropped op is re-learned later from the repair channel.
//   - Eventual delivery is guaranteed (not just w.h.p.) by the anti-entropy
//     pass: every AntiEntropyEvery ticks each process sends a DIGEST — the
//     sorted ID set of its graph, no edges, no values — to the next
//     round-robin peer. The peer answers with exactly the ops the digester
//     lacks (a delta, in insertion order, each op with its resolved deps),
//     absorbed through the same closure-checked recvGossip path at an age
//     past MaxAge so repairs are never re-rumored. Graphs are monotone and
//     the rotation visits every peer, so for any op m held by a correct q,
//     every correct p digests to q within one rotation and q repairs p:
//     every op reaches every correct process within O(n) anti-entropy
//     periods even if its rumor died out immediately — and the repair
//     channel ships deltas, never the full O(ops + edges) graph the
//     all-to-all mode broadcasts.
//
// Cost: a broadcast costs Fanout = ceil(log2 n)+1 envelopes instead of n−1,
// each carrying only the new op instead of the whole graph; forwarding is
// novelty-gated (only ops that were new to the forwarder travel on) and
// tick-coalesced (one sample per tick, not per reception), and rumor aging
// (MaxAge hops) bounds the epidemic phase at O(fanout · log n) envelopes per
// op systemwide. The En experiment in internal/bench measures the realized
// envelope counts against the n−1 column.
//
// Promote dissemination is unchanged: only the current leader broadcasts
// promote_i, which is O(n) envelopes per timeout systemwide — not the n²
// term — and promote adoption is guarded by "from the leader I trust", which
// relayed copies would break.
//
// Only GossipFactory turns this mode on; every other constructor leaves the
// sampler unset, so none of this code runs and every trace is the plain
// automaton's — pinned by the golden tables. Gossip and batching are
// separate configurations: a gossip automaton sends each broadcast as its
// own rumor, and the rumor forwarding coalesces per tick.

// GossipOp is one broadcastETOB invocation as it travels inside a rumor:
// the op and its resolved direct dependencies (deps resolve at broadcast, so a
// rumor is self-describing and the receiver can check closure locally).
type GossipOp struct {
	ID   string
	Deps []string
}

// GossipMsg is a rumor: a delta of ops, plus the hop age used for rumor
// retirement. Receivers absorb what is dependency-closed, then re-forward
// (tick-coalesced) what was novel to them while Age+1 <= MaxAge. Anti-entropy
// repairs travel as GossipMsg too, at Age = MaxAge so they never re-rumor.
type GossipMsg struct {
	Ops []GossipOp
	Age int
}

// DigestMsg is the anti-entropy probe: the sorted ID set of the sender's
// causality graph. The receiver answers with the delta the sender lacks.
type DigestMsg struct {
	IDs []string
}

// GossipStats counts the gossip layer's traffic at one automaton.
type GossipStats struct {
	// Rumors is the number of rumor emissions (each costs Fanout envelopes):
	// flush-originated plus forwarded.
	Rumors int64
	// AntiEntropy is the number of digest probes sent; Repairs is the number
	// of delta responses sent back to a digesting peer.
	AntiEntropy int64
	Repairs     int64
	// OpsAbsorbed counts delta ops applied on reception; OpsDropped counts
	// delta ops discarded for missing dependencies (left to anti-entropy).
	OpsAbsorbed int64
	OpsDropped  int64
}

// setGossip installs the gossip dissemination mode. Must be called before
// the automaton takes its first step.
func (a *Automaton) setGossip(o gossip.Options) {
	a.aeEvery = o.WithDefaults().AntiEntropyEvery
	a.maxAge = gossip.MaxAge(a.n)
	a.sampler = gossip.NewSampler(a.self, a.n, o.Seed)
}

// GossipStats returns the gossip layer's counters.
func (a *Automaton) GossipStats() GossipStats { return a.gstats }

// GossipFactory returns the factory of Algorithm 5 automata in the gossip
// dissemination mode.
func GossipFactory(g gossip.Options) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		a := New(p, n)
		a.setGossip(g)
		return a
	}
}

// emitGossip disseminates a freshly broadcast op as an age-0 rumor to a
// seeded peer sample. It replaces ctx.Broadcast(UpdateMsg) — and, because
// gossip sends no self-copy, it extends promote_i locally (in broadcast mode
// the sender's own update delivery did that).
func (a *Automaton) emitGossip(ctx model.Context, op GossipOp) {
	msg := GossipMsg{Ops: []GossipOp{op}}
	for _, q := range a.sampler.Sample() {
		ctx.Send(q, msg)
	}
	a.gstats.Rumors++
	a.updatePromote()
}

// recvGossip absorbs a rumor: each op is applied iff all its dependencies
// are already in CG_i (keeping the graph dependency-closed; see the file
// comment), and ops that were novel here are queued for one tick-coalesced
// re-forward at Age+1 while the rumor is young enough.
func (a *Automaton) recvGossip(m GossipMsg) {
	novel := false
	forward := m.Age+1 <= a.maxAge
	for _, op := range m.Ops {
		if a.cg.Has(op.ID) {
			continue
		}
		closed := true
		for _, d := range op.Deps {
			if !a.cg.Has(d) {
				closed = false
				break
			}
		}
		if !closed {
			a.gstats.OpsDropped++
			continue
		}
		a.updateCG(op.ID, op.Deps)
		a.gstats.OpsAbsorbed++
		novel = true
		if forward {
			a.fresh = append(a.fresh, op)
			if m.Age > a.freshAge {
				a.freshAge = m.Age
			}
		}
	}
	if novel {
		a.updatePromote()
	}
}

// tickGossip runs once per local timeout before the promote step: it
// re-forwards the tick's accumulated novel ops as one aged rumor, and every
// AntiEntropyEvery ticks sends a graph digest to the next round-robin peer
// (the deterministic repair channel).
func (a *Automaton) tickGossip(ctx model.Context) {
	if len(a.fresh) > 0 {
		msg := GossipMsg{Ops: a.fresh, Age: a.freshAge + 1}
		for _, q := range a.sampler.Sample() {
			ctx.Send(q, msg)
		}
		a.gstats.Rumors++
		a.fresh = nil
		a.freshAge = 0
	}
	a.aeTick++
	if a.aeTick >= a.aeEvery {
		a.aeTick = 0
		if q, ok := a.sampler.NextPeer(); ok {
			ids := a.cg.Nodes()
			sort.Strings(ids)
			ctx.Send(q, DigestMsg{IDs: ids})
			a.gstats.AntiEntropy++
		}
	}
}

// recvDigest answers an anti-entropy probe with the ops the digesting peer
// lacks. The delta walks the graph in insertion order — topological whenever
// broadcasters respect C(m) ⊆ CG_i, which Algorithm 5 requires — so the
// peer's closure check absorbs it front to back; anything out of order is
// dropped there and repaired on a later rotation. Age starts at MaxAge so
// repairs are never re-rumored: anti-entropy traffic stays one digest plus
// one delta per period, independent of fanout.
func (a *Automaton) recvDigest(ctx model.Context, from model.ProcID, m DigestMsg) {
	has := make(map[string]bool, len(m.IDs))
	for _, id := range m.IDs {
		has[id] = true
	}
	var delta []GossipOp
	for _, id := range a.cg.Nodes() {
		if !has[id] {
			delta = append(delta, GossipOp{ID: id, Deps: a.cg.Deps(id)})
		}
	}
	if len(delta) > 0 {
		ctx.Send(from, GossipMsg{Ops: delta, Age: a.maxAge})
		a.gstats.Repairs++
	}
}
