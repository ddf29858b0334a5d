package main

import (
	"time"

	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/smr"
)

// The traced sim stack: the same composition core.ReplicaStackWith builds —
// retransmit.Wrap around smr.ReplicaFactory around the ETOB automaton, with
// the KV machine — assembled here from the public constructors, with a timing
// shim at every model.Automaton method and every Context Send/Broadcast/Output
// crossing between layers, and a wrapped smr.MachineFactory. Spans stay in
// memory; a layer's self time is its spans' time minus their child spans'.

// layer names one timed layer of the stack.
type layer uint8

const (
	layerSim        layer = iota // the kernel: crossings out of retransmit, plus everything outside the stack
	layerRetransmit              // retransmit.Automaton
	layerSMR                     // smr.Replica
	layerETOB                    // etob.Automaton
	layerMachine                 // the KV machine's Apply
	layerProbe                   // the tracer's own measurements (update sizes); charged to no layer
	numLayers
)

var layerNames = [numLayers]string{"sim", "retransmit", "smr", "etob", "machine", "probe"}

// span is one timed call. Times are nanoseconds since the tracer's base; tick
// is the kernel time of the step the call belongs to.
type span struct {
	start, end int64
	parent     int32
	layer      layer
	tick       int32
}

// tracer records spans and the counts observed at the same boundaries. It is
// single-threaded, like the kernel that drives it.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	tick  int32

	updates     int64   // UpdateMsg broadcasts by etob
	updateBytes int64   // summed CG.WireSize() of those broadcasts
	etobMsgs    int64   // messages etob sent (a broadcast counts once per recipient)
	promoteLens []int64 // len(PromoteMsg.Seq) per promote broadcast
	envelopes   int64   // retransmit Data envelopes handed to the kernel, resends included
	delivered   int64   // Data envelopes the kernel delivered to retransmit
	applies     int64   // machine Apply calls, re-applications included
	pendingMax  int     // most unacked envelopes any process held after a step

	retransmits []*retransmit.Automaton // every instance built, restarts included
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) clock() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(l layer) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.clock(), parent: parent, layer: l, tick: t.tick})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = t.clock()
	t.stack = t.stack[:len(t.stack)-1]
}

// tracedStack builds the shimmed replica stack for one sim workload.
func (t *tracer) tracedStack(batch etob.BatchOptions, rt retransmit.Options) model.AutomatonFactory {
	broadcast := etob.Factory()
	if batch.Enabled() {
		broadcast = etob.BatchedFactory(batch)
	}
	replica := smr.ReplicaFactory(t.shimFactory(layerETOB, layerSMR, broadcast), t.machineFactory(smr.KVFactory))
	return t.shimFactory(layerRetransmit, layerSim, retransmit.Wrap(t.shimFactory(layerSMR, layerRetransmit, replica), rt))
}

// shimFactory wraps every automaton f builds in a shim timing it as layer l,
// whose context crossings are timed as layer up (the layer they enter).
func (t *tracer) shimFactory(l, up layer, f model.AutomatonFactory) model.AutomatonFactory {
	return func(p model.ProcID, n int) model.Automaton {
		a := f(p, n)
		if r, ok := a.(*retransmit.Automaton); ok {
			t.retransmits = append(t.retransmits, r)
		}
		s := &shim{t: t, l: l, inner: a}
		s.ctx = tctx{t: t, l: up, n: n}
		return s
	}
}

// shim times one automaton's methods. Its context wrapper is reused across
// steps: a Context is only valid for the step it was handed to.
type shim struct {
	t     *tracer
	l     layer
	inner model.Automaton
	ctx   tctx
}

func (s *shim) enter(ctx model.Context) int32 {
	if len(s.t.stack) == 0 {
		s.t.tick = int32(ctx.Now())
	}
	s.ctx.Context = ctx
	return s.t.begin(s.l)
}

func (s *shim) leave(i int32) {
	s.t.end(i)
	if len(s.t.stack) == 0 {
		if r, ok := s.inner.(*retransmit.Automaton); ok && r.PendingEnvelopes() > s.t.pendingMax {
			s.t.pendingMax = r.PendingEnvelopes()
		}
	}
}

func (s *shim) Init(ctx model.Context) {
	i := s.enter(ctx)
	s.inner.Init(&s.ctx)
	s.leave(i)
}

func (s *shim) Recv(ctx model.Context, from model.ProcID, payload any) {
	if _, ok := payload.(retransmit.Data); ok && s.l == layerRetransmit {
		s.t.delivered++
	}
	i := s.enter(ctx)
	s.inner.Recv(&s.ctx, from, payload)
	s.leave(i)
}

func (s *shim) Tick(ctx model.Context) {
	i := s.enter(ctx)
	s.inner.Tick(&s.ctx)
	s.leave(i)
}

func (s *shim) Input(ctx model.Context, in any) {
	i := s.enter(ctx)
	s.inner.Input(&s.ctx, in)
	s.leave(i)
}

// tctx times the crossings out of a shimmed automaton as layer l.
type tctx struct {
	model.Context
	t *tracer
	l layer
	n int
}

func (c *tctx) Send(to model.ProcID, payload any) {
	c.t.observe(c.l, payload, 1)
	i := c.t.begin(c.l)
	c.Context.Send(to, payload)
	c.t.end(i)
}

func (c *tctx) Broadcast(payload any) {
	c.t.observe(c.l, payload, c.n)
	i := c.t.begin(c.l)
	c.Context.Broadcast(payload)
	c.t.end(i)
}

func (c *tctx) Output(v any) {
	i := c.t.begin(c.l)
	c.Context.Output(v)
	c.t.end(i)
}

// observe counts a payload crossing into layer l, sent to recipients
// processes: etob's messages where they enter smr, retransmit's envelopes
// where they enter the kernel.
func (t *tracer) observe(l layer, payload any, recipients int) {
	switch l {
	case layerSMR:
		t.etobMsgs += int64(recipients)
		switch m := payload.(type) {
		case etob.UpdateMsg:
			t.updates++
			i := t.begin(layerProbe)
			t.updateBytes += int64(m.CG.WireSize())
			t.end(i)
		case etob.PromoteMsg:
			t.promoteLens = append(t.promoteLens, int64(len(m.Seq)))
		}
	case layerSim:
		if _, ok := payload.(retransmit.Data); ok {
			t.envelopes += int64(recipients)
		}
	}
}

// machineFactory wraps each machine so Apply is timed as layerMachine.
func (t *tracer) machineFactory(f smr.MachineFactory) smr.MachineFactory {
	return func() smr.StateMachine { return &tmachine{t: t, m: f()} }
}

type tmachine struct {
	t *tracer
	m smr.StateMachine
}

func (m *tmachine) Apply(cmd string) string {
	m.t.applies++
	i := m.t.begin(layerMachine)
	r := m.m.Apply(cmd)
	m.t.end(i)
	return r
}

func (m *tmachine) Snapshot() string { return m.m.Snapshot() }

// replicaOf peels shims and the retransmission wrapper off a stack automaton.
func replicaOf(a model.Automaton) *smr.Replica {
	for {
		switch x := a.(type) {
		case *shim:
			a = x.inner
		case *retransmit.Automaton:
			a = x.Inner()
		case *smr.Replica:
			return x
		default:
			return nil
		}
	}
}

// selfTimes folds the spans into per-layer self time (ns), split by a window
// function over step ticks (window < 0 drops a span from the windowed sums),
// plus the summed duration of the top-level spans — the time inside the
// stack at all.
func (t *tracer) selfTimes(window func(tick int32) int, windows int) (self [numLayers]int64, byWindow [][numLayers]int64, top int64) {
	byWindow = make([][numLayers]int64, windows)
	for _, s := range t.spans {
		d := s.end - s.start
		w := window(s.tick)
		self[s.layer] += d
		if w >= 0 {
			byWindow[w][s.layer] += d
		}
		if s.parent < 0 {
			top += d
			continue
		}
		pl := t.spans[s.parent].layer
		self[pl] -= d
		if w >= 0 {
			byWindow[w][pl] -= d
		}
	}
	return self, byWindow, top
}
