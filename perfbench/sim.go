package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/etob"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/sim"
	_ "repro/internal/sim/adversary" // registers the named network presets
	"repro/internal/smr"
)

// simSpec is one sim-kernel workload.
type simSpec struct {
	procs     int
	preset    string            // sim network/fault preset; "" = uniform
	batch     etob.BatchOptions // ETOB batching (zero = unbatched)
	rotate    model.Time        // Ω rotation period before tauOmega; 0 = stable Ω
	tauOmega  model.Time        // Ω stabilization time (0 for a stable Ω)
	writeRate float64           // writes per tick
	readRate  float64           // reads per tick
	writes    int               // writes per trial
	trialSecs float64           // nominal seconds one trial takes on a 2-core host; sizes a run
	guard     model.Time        // a write goes to a replica that stays up this long
}

var simSpecs = map[string]simSpec{
	"sim-history": {procs: 3, writeRate: 2, readRate: 2, writes: 3000, trialSecs: 3.5},
	"sim-hostile": {procs: 5, preset: "hostile", batch: etob.BatchOptions{MaxBatch: 8},
		rotate: 50, tauOmega: 2000, writeRate: 0.5, readRate: 0.5, writes: 2000, trialSecs: 2, guard: 100},
}

const simSettle = 60_000 // ticks past the last arrival before writes count as unresolved

// simTrial is the outcome of one trial.
type simTrial struct {
	setup, wall, cpu time.Duration
	gc               gcClock // GC and total CPU seconds over the run phase
	heapMB           float64
	writes, reads    int
	unresolved       int
	badReads         int
	visTicks, stTick []int64
	visMS, readMS    []float64
	steps, msgs      int64
	rebuilds         int
	lastRewrite      model.Time
	arrivals         []int32 // due tick per write
	fingerprint      uint64  // everything that must repeat at one seed
	err              error   // correctness violation
}

// simObserver tracks every write from its input step to its application at
// each replica (first application per replica, as internal/loadgen does).
type simObserver struct {
	sim.NopObserver
	n           int
	base        time.Time
	submitTick  []int64
	submitWall  []int64
	first       []int64 // write*n + proc-1 → tick, -1 = not yet
	appliedBy   []int32
	visTick     []int64
	visWall     []int64
	lastApply   []int64
	resolved    int
	rebuilds    int
	lastRewrite model.Time
}

func newSimObserver(writes, n int) *simObserver {
	o := &simObserver{
		n: n, base: time.Now(),
		submitTick: make([]int64, writes), submitWall: make([]int64, writes),
		first: make([]int64, writes*n), appliedBy: make([]int32, writes),
		visTick: make([]int64, writes), visWall: make([]int64, writes), lastApply: make([]int64, writes),
		lastRewrite: -1,
	}
	for i := range o.first {
		o.first[i] = -1
	}
	for i := range o.visTick {
		o.visTick[i], o.submitTick[i] = -1, -1
	}
	return o
}

func (o *simObserver) OnInput(p model.ProcID, t model.Time, v any) {
	if c, ok := v.(smr.Command); ok {
		if i, ok := writeIndex(c.Cmd); ok && i < len(o.submitTick) {
			o.submitTick[i] = int64(t)
			o.submitWall[i] = int64(time.Since(o.base))
		}
	}
}

func (o *simObserver) OnOutput(p model.ProcID, t model.Time, v any) {
	a, ok := v.(smr.Applied)
	if !ok {
		return
	}
	if a.Rebuilt {
		o.rebuilds++
		o.lastRewrite = t
	}
	for _, id := range a.New {
		cmd, _ := smr.DecodeCommand(id)
		i, ok := writeIndex(cmd)
		if !ok || i >= len(o.appliedBy) {
			continue
		}
		o.lastApply[i] = int64(t)
		slot := i*o.n + int(p) - 1
		if o.first[slot] >= 0 {
			continue
		}
		o.first[slot] = int64(t)
		if o.appliedBy[i]++; int(o.appliedBy[i]) == o.n {
			o.visTick[i] = int64(t)
			o.visWall[i] = int64(time.Since(o.base))
			o.resolved++
		}
	}
}

// detector builds the workload's Ω history.
func (s simSpec) detector(fp *model.FailurePattern) fd.Detector {
	if s.rotate > 0 {
		return fd.NewOmegaRotating(fp, 1, s.tauOmega, s.rotate)
	}
	return fd.NewOmegaStable(fp, 1)
}

// runSimTrial runs one trial of spec: inputs drawn from seed, network delays,
// losses and resend jitter from envSeed. tr == nil runs the stack as
// core.ReplicaStackWith builds it, otherwise the traced equivalent.
func runSimTrial(spec simSpec, seed, envSeed int64, tr *tracer) simTrial {
	var res simTrial
	setupStart := time.Now()
	sched := genSchedule(seed, spec.writeRate, spec.readRate, spec.writes, 100, math.Inf(1))
	res.writes, res.reads = len(sched.writes), sched.reads

	opts := sim.Options{Seed: envSeed, MaxTime: model.TimeNever}
	var faults model.FaultModel
	if spec.preset != "" {
		nf, err := sim.PresetFactory(spec.preset)
		if err != nil {
			res.err = err
			return res
		}
		opts.Network = nf
		if mk := sim.PresetFaults(spec.preset); mk != nil {
			faults = mk(spec.procs)
			opts.Faults = faults
		}
	}
	up := func(p model.ProcID, t model.Time) bool { return faults == nil || faults.Up(p, t) }
	rt := retransmit.Options{Seed: envSeed}
	var factory model.AutomatonFactory
	if tr == nil {
		factory = core.ReplicaStackWith(core.Eventual, core.StackOptions{Machine: smr.KVFactory, Retransmit: &rt, Batch: spec.batch})
	} else {
		factory = tr.tracedStack(spec.batch, rt)
	}
	fp := model.NewFailurePattern(spec.procs)
	k := sim.New(fp, spec.detector(fp), factory, opts)
	ob := newSimObserver(res.writes, spec.procs)
	k.SetObserver(ob)

	ids := make([]string, spec.procs)
	for i := range ids {
		ids[i] = strconv.Itoa(i + 1)
	}
	// route picks the session's best-ranked replica that is up (for a write:
	// over the guard window too), as the front door routes to healthy ones.
	route := func(session int, t model.Time, guard model.Time) model.ProcID {
		for _, id := range rendezvous(sessionName(session), ids) {
			n, _ := strconv.Atoi(id)
			p := model.ProcID(n)
			if up(p, t) && up(p, t+guard/2) && up(p, t+guard) {
				return p
			}
		}
		return model.NoProc
	}
	type simRead struct {
		o op
		t model.Time
	}
	var reads []simRead
	lastAt := make([]model.Time, spec.procs+1)
	var horizon model.Time
	res.arrivals = make([]int32, 0, res.writes)
	for _, o := range sched.ops {
		t := model.Time(math.Ceil(o.due))
		if !o.write {
			reads = append(reads, simRead{o, t})
			continue
		}
		p := route(o.session, t, spec.guard)
		if p == model.NoProc {
			res.err = fmt.Errorf("no replica up for write %d at tick %d", o.val, t)
			return res
		}
		if t <= lastAt[p] { // one input per replica per tick keeps submission order defined
			t = lastAt[p] + 1
		}
		lastAt[p] = t
		if t > horizon {
			horizon = t
		}
		res.arrivals = append(res.arrivals, int32(t))
		k.ScheduleInput(p, t, smr.Command{Cmd: o.command()})
	}
	res.setup = time.Since(setupStart)

	h := fnv.New64a()
	ri := 0
	stop := func(k *sim.Kernel) bool {
		for ri < len(reads) && k.Now() >= reads[ri].t {
			r := reads[ri]
			ri++
			p := route(r.o.session, r.t, 0)
			start := time.Now()
			val := lookup(replicaOf(k.Automaton(p)).Snapshot(), r.o.keyName())
			res.readMS = append(res.readMS, ms(time.Since(start)))
			if !validRead(sched.writes, r.o.key, val) {
				res.badReads++
			}
			fmt.Fprintf(h, "r%d=%s;", ri, val)
		}
		if ob.resolved < res.writes || ri < len(reads) {
			return false
		}
		// Every write is visible; run on until every replica's current
		// incarnation holds them all (a restarted one catches up later).
		for p := 1; p <= spec.procs; p++ {
			if !up(model.ProcID(p), k.Now()) || replicaOf(k.Automaton(model.ProcID(p))).AppliedCount() < res.writes {
				return false
			}
		}
		return true
	}
	gc0, cpu0, start := readGCClock(), cpuTime(), time.Now()
	k.RunUntil(horizon+simSettle, stop)
	res.wall, res.cpu, res.gc = time.Since(start), cpuTime()-cpu0, readGCClock().since(gc0)
	res.heapMB = heapMB()

	res.steps, res.msgs = k.Steps(), k.MessagesSent()
	res.rebuilds, res.lastRewrite = ob.rebuilds, ob.lastRewrite
	for i := range sched.writes {
		if ob.visTick[i] < 0 || ob.submitTick[i] < 0 {
			res.unresolved++
			continue
		}
		res.visTicks = append(res.visTicks, ob.visTick[i]-ob.submitTick[i])
		res.stTick = append(res.stTick, ob.lastApply[i]-ob.submitTick[i])
		res.visMS = append(res.visMS, float64(ob.visWall[i]-ob.submitWall[i])/1e6)
		fmt.Fprintf(h, "w%d:%d,%d;", i, ob.visTick[i], ob.lastApply[i])
	}
	var snaps []string
	for p := 1; p <= spec.procs; p++ {
		snaps = append(snaps, replicaOf(k.Automaton(model.ProcID(p))).Snapshot())
	}
	fmt.Fprintf(h, "msgs=%d;rebuilds=%d;snap=%s", res.msgs, res.rebuilds, snaps[0])
	res.fingerprint = h.Sum64()
	var visible []op
	for i, w := range sched.writes {
		if ob.visTick[i] >= 0 {
			visible = append(visible, w)
		}
	}
	if err := checkFinal(sched.writes, visible, snaps); err != nil {
		res.err = err
	} else if res.badReads > 0 {
		res.err = fmt.Errorf("%d reads returned a value no write to that key carried", res.badReads)
	}
	return res
}
