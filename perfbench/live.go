package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/etob"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/retransmit"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/smr"
)

// live-kv: three in-process internal/node replicas over loopback TCP (gob
// codec, 2 ms tick, unbatched) behind the internal/lb front door, driven by
// an open-loop HTTP client.
const (
	liveProcs     = 3
	liveTick      = 2 * time.Millisecond
	liveWriteRate = 100.0           // writes per second
	liveReadRate  = 100.0           // reads per second
	livePhase     = 3 * time.Second // timed phase per cluster; a run boots one cluster per phase
	liveSettle    = 10 * time.Second
	warmupKey     = "warmup"
)

// liveObserver is the replicas' runtime.Options.Observer: it stamps each
// write's application at each replica and, in a traced run, counts and
// encodes the frames the replicas send.
type liveObserver struct {
	sim.NopObserver
	mu        sync.Mutex
	appliedBy []int32
	applied   []bool // write*liveProcs + proc-1
	visibleAt []time.Time
	lastAt    []time.Time
	resolved  int
	warm      int // replicas that applied the warm-up write

	probe *codecProbe // nil when untraced
}

func newLiveObserver(writes int, probe *codecProbe) *liveObserver {
	return &liveObserver{
		appliedBy: make([]int32, writes), applied: make([]bool, writes*liveProcs),
		visibleAt: make([]time.Time, writes), lastAt: make([]time.Time, writes), probe: probe,
	}
}

func (o *liveObserver) OnOutput(p model.ProcID, _ model.Time, v any) {
	a, ok := v.(smr.Applied)
	if !ok {
		return
	}
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, id := range a.New {
		cmd, _ := smr.DecodeCommand(id)
		if strings.HasPrefix(cmd, "set "+warmupKey+" ") {
			o.warm++
			continue
		}
		i, ok := writeIndex(cmd)
		if !ok || i >= len(o.appliedBy) {
			continue
		}
		o.lastAt[i] = now
		if slot := i*liveProcs + int(p) - 1; !o.applied[slot] {
			o.applied[slot] = true
			if o.appliedBy[i]++; o.appliedBy[i] == liveProcs {
				o.visibleAt[i] = now
				o.resolved++
			}
		}
	}
}

func (o *liveObserver) OnSend(_ model.Time, m sim.Message) {
	if o.probe != nil {
		o.probe.sent(m)
	}
}

func (o *liveObserver) OnDeliver(_ model.Time, m sim.Message) {
	if o.probe != nil {
		o.probe.delivered(m)
	}
}

// liveMachine is the replicas' node.Config.Machine in a traced run: the KV
// store with Apply and Snapshot timed (shared by all three replicas).
type liveMachine struct {
	mu        sync.Mutex
	counting  bool // only the timed phase counts
	applies   int64
	applyNS   int64
	snapshots int64
	snapNS    int64
}

type liveMachineInst struct {
	lm *liveMachine
	m  smr.StateMachine
}

func (lm *liveMachine) factory() smr.StateMachine {
	return &liveMachineInst{lm: lm, m: smr.KVFactory()}
}

func (x *liveMachineInst) Apply(cmd string) string {
	start := time.Now()
	r := x.m.Apply(cmd)
	d := time.Since(start)
	x.lm.mu.Lock()
	if x.lm.counting {
		x.lm.applies++
		x.lm.applyNS += d.Nanoseconds()
	}
	x.lm.mu.Unlock()
	return r
}

func (x *liveMachineInst) Snapshot() string {
	start := time.Now()
	s := x.m.Snapshot()
	d := time.Since(start)
	x.lm.mu.Lock()
	if x.lm.counting {
		x.lm.snapshots++
		x.lm.snapNS += d.Nanoseconds()
	}
	x.lm.mu.Unlock()
	return s
}

func (lm *liveMachine) setCounting(on bool) {
	lm.mu.Lock()
	lm.counting = on
	lm.mu.Unlock()
}

// liveCluster is one booted cluster.
type liveCluster struct {
	front  *lb.Front
	nodes  []*node.Node
	client *http.Client
}

// bootCluster starts the front door and the replicas, waits until the front
// door routes to all of them, and pushes one warm-up write through it until
// every replica has applied it.
func bootCluster(ob *liveObserver, machine smr.MachineFactory, tick time.Duration) (*liveCluster, error) {
	front, err := lb.New(lb.Config{})
	if err != nil {
		return nil, err
	}
	c := &liveCluster{front: front, client: newClient()}
	for attempt := 1; ; attempt++ {
		if err = c.startNodes(ob, machine, tick); err == nil {
			break
		}
		if attempt == 5 {
			c.stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for len(front.Healthy()) != liveProcs {
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("front door routes to %v, want %d replicas", front.Healthy(), liveProcs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for attempt := 0; ; attempt++ {
		if _, err := c.do(http.MethodPost, "/update?cmd="+url.QueryEscape("set "+warmupKey+" 0"), "s0"); err == nil {
			break
		} else if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("warm-up write: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		ob.mu.Lock()
		warm := ob.warm
		ob.mu.Unlock()
		if warm >= liveProcs {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("warm-up write applied at %d of %d replicas", warm, liveProcs)
		}
		time.Sleep(time.Millisecond)
	}
}

// startNodes starts the replicas on fresh loopback ports. Each port stays
// held by a placeholder listener until its replica binds it: a replica that
// dials a peer's port before the peer listens could otherwise be handed that
// very port as its own source port (a TCP self-connect) and keep the peer
// from binding. On failure the started replicas are killed.
func (c *liveCluster) startNodes(ob *liveObserver, machine smr.MachineFactory, tick time.Duration) error {
	peers := make(map[model.ProcID]string, liveProcs)
	var holds []net.Listener
	defer func() {
		for _, ln := range holds {
			ln.Close()
		}
	}()
	for p := model.ProcID(1); p <= liveProcs; p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		holds = append(holds, ln)
		peers[p] = ln.Addr().String()
	}
	for p := model.ProcID(1); p <= liveProcs; p++ {
		holds[p-1].Close()
		nd, err := node.New(node.Config{
			ID: p, Peers: peers, Front: c.front.URL(), Machine: machine,
			Runtime: runtime.Options{TickInterval: tick, HeartbeatInterval: tick, Observer: ob},
		})
		if err != nil {
			for _, nd := range c.nodes {
				nd.Kill()
			}
			c.nodes = nil
			return fmt.Errorf("start replica %v: %w", p, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	return nil
}

// newClient is the benchmark's HTTP client: at most nproc connections.
func newClient() *http.Client {
	n := goruntime.NumCPU()
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n,
			DisableCompression: true, IdleConnTimeout: time.Minute,
		},
	}
}

// do sends one request through the front door and returns the body of a
// success (202 for writes, 200 for reads); a read's 404 returns "".
func (c *liveCluster) do(method, path, session string) (string, error) {
	req, err := http.NewRequest(method, c.front.URL()+path, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Session", session)
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	switch {
	case method == http.MethodPost && resp.StatusCode == http.StatusAccepted:
		return "", nil
	case method == http.MethodGet && resp.StatusCode == http.StatusOK:
		return strings.TrimSpace(string(body)), nil
	case method == http.MethodGet && resp.StatusCode == http.StatusNotFound:
		return "", nil
	}
	return "", fmt.Errorf("HTTP %d", resp.StatusCode)
}

// get fetches a URL directly (a replica's /snapshot or any /metrics).
func (c *liveCluster) get(u string) (string, error) {
	resp, err := c.client.Get(u)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return string(b), err
}

// stop tears the cluster down once its checks are done: Kill stops each
// replica's HTTP server, event loop and transport without the graceful
// drain, which would wait on peers that already stopped.
func (c *liveCluster) stop() {
	for _, nd := range c.nodes {
		nd.Kill()
	}
	c.front.Close()
	c.client.CloseIdleConnections()
}

// liveTrial is the outcome of one cluster's timed phase.
type liveTrial struct {
	setup, phase, cpu time.Duration
	gc                gcClock
	heapMB            float64
	writes, reads     int
	accepted          int // writes the front door answered 202
	resolved          int // accepted writes applied at every replica
	httpErrors        int
	firstHTTPErr      error
	badReads          int
	visMS, stMS       []float64 // from due time
	readMS            []float64 // from due time
	clientUS          []float64 // send to response, all requests
	lateMS            []float64 // how late the generator launched each request
	scrape            map[string]int64
	err               error
}

// runLiveTrial boots a cluster whose replicas tick every tick (the workload
// uses liveTick), runs the open loop for phase, settles, checks and tears
// down.
func runLiveTrial(seed int64, phase, tick time.Duration, traced bool) (liveTrial, *liveMachine, *codecProbe) {
	var res liveTrial
	sched := genSchedule(seed, liveWriteRate, liveReadRate, 1<<30, 0, phase.Seconds())
	res.writes, res.reads = len(sched.writes), sched.reads
	var probe *codecProbe
	var lm *liveMachine
	machine := smr.KVFactory
	if traced {
		probe = newCodecProbe()
		lm = &liveMachine{}
		machine = lm.factory
	}
	ob := newLiveObserver(res.writes, probe)

	setupStart := time.Now()
	c, err := bootCluster(ob, machine, tick)
	if err != nil {
		res.err = err
		return res, lm, probe
	}
	defer c.stop()
	res.setup = time.Since(setupStart)
	if traced {
		probe.reset()
		lm.setCounting(true)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	wDue := make([]time.Time, res.writes)
	accepted := make([]bool, res.writes)
	gc0, cpu0, start := readGCClock(), cpuTime(), time.Now()
	for _, o := range sched.ops {
		due := start.Add(time.Duration(o.due * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		// One goroutine per request, unbounded: a cap on requests in flight
		// would close the loop. The schedule bounds them, and the client's
		// connection cap queues them.
		wg.Add(1)
		go func(o op, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			var val string
			var err error
			if o.write {
				val, err = c.do(http.MethodPost, "/update?cmd="+url.QueryEscape(o.command()), sessionName(o.session))
			} else {
				val, err = c.do(http.MethodGet, "/read?key="+o.keyName(), sessionName(o.session))
			}
			done := time.Now()
			mu.Lock()
			defer mu.Unlock()
			res.lateMS = append(res.lateMS, ms(late))
			res.clientUS = append(res.clientUS, float64(done.Sub(sent).Nanoseconds())/1e3)
			switch {
			case err != nil:
				if res.httpErrors++; res.firstHTTPErr == nil {
					res.firstHTTPErr = err
				}
			case o.write:
				wDue[o.val], accepted[o.val] = due, true
			default:
				res.readMS = append(res.readMS, ms(done.Sub(due)))
				if !validRead(sched.writes, o.key, val) {
					res.badReads++
				}
			}
		}(o, due)
	}
	wg.Wait()
	var visible []op // writes the replicas must all reflect: the accepted ones
	for i, ok := range accepted {
		if ok {
			visible = append(visible, sched.writes[i])
		}
	}
	res.accepted = len(visible)
	settleBy := time.Now().Add(liveSettle)
	for time.Now().Before(settleBy) {
		ob.mu.Lock()
		n := ob.resolved
		ob.mu.Unlock()
		if n == len(visible) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.phase, res.cpu, res.gc = time.Since(start), cpuTime()-cpu0, readGCClock().since(gc0)
	res.heapMB = heapMB()
	if traced {
		lm.setCounting(false)
	}

	ob.mu.Lock()
	res.resolved = ob.resolved
	for i := range sched.writes {
		if !accepted[i] || ob.visibleAt[i].IsZero() {
			continue
		}
		res.visMS = append(res.visMS, ms(ob.visibleAt[i].Sub(wDue[i])))
		res.stMS = append(res.stMS, ms(ob.lastAt[i].Sub(wDue[i])))
	}
	ob.mu.Unlock()

	// Replicas converge eventually: poll their snapshots until they agree or
	// the settle time is up.
	for {
		res.err = c.checkSnapshots(sched.writes, visible)
		if res.err == nil || time.Now().After(settleBy) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res.err == nil && res.badReads > 0 {
		res.err = fmt.Errorf("%d reads returned a value no write to that key carried", res.badReads)
	}
	if traced {
		res.scrape = c.scrapeAll()
	}
	return res, lm, probe
}

// checkSnapshots fetches every replica's /snapshot and checks them (see
// checkFinal), ignoring the warm-up key.
func (c *liveCluster) checkSnapshots(all, visible []op) error {
	var snaps []string
	for _, nd := range c.nodes {
		s, err := c.get(nd.URL() + "/snapshot")
		if err != nil {
			return fmt.Errorf("snapshot of replica %v: %w", nd.ID(), err)
		}
		snaps = append(snaps, dropKey(strings.TrimSpace(s), warmupKey))
	}
	return checkFinal(all, visible, snaps)
}

// dropKey removes one key from a KV snapshot.
func dropKey(snap, key string) string {
	var keep []string
	for _, pair := range strings.Split(snap, ",") {
		if k, _, _ := strings.Cut(pair, "="); k != key && pair != "" {
			keep = append(keep, pair)
		}
	}
	return strings.Join(keep, ",")
}

// scrapeAll reads every replica's and the front door's GET /metrics. Replica
// counters are summed under their own names; the HTTP latency quantiles are
// averaged over replicas weighted by request count (node_http_p50/_p99); the
// front door's samples are prefixed "lb:".
func (c *liveCluster) scrapeAll() map[string]int64 {
	out := map[string]int64{}
	var wP50, wP99, total int64
	for _, nd := range c.nodes {
		body, err := c.get(nd.URL() + "/metrics")
		if err != nil {
			continue
		}
		m, err := obs.ParseText(strings.NewReader(body))
		if err != nil {
			continue
		}
		for k, v := range m {
			out[k] += v
		}
		n := m[obs.MetricHTTPLatency+"_count"]
		wP50 += n * m[obs.MetricHTTPLatency+`{quantile="0.5"}`]
		wP99 += n * m[obs.MetricHTTPLatency+`{quantile="0.99"}`]
		total += n
	}
	if total > 0 {
		out["node_http_p50"], out["node_http_p99"] = wP50/total, wP99/total
	}
	if body, err := c.get(c.front.URL() + "/metrics"); err == nil {
		if m, err := obs.ParseText(strings.NewReader(body)); err == nil {
			for k, v := range m {
				out["lb:"+k] = v
			}
		}
	}
	return out
}

// codecProbe encodes every inter-replica frame the observer sees exactly as
// runtime.TCPTransport frames it — a fresh gob encoder per runtime.Frame
// behind a 4-byte length — and counts what the etob and retransmit layers
// put on the wire.
type codecProbe struct {
	mu          sync.Mutex
	frames      int64
	bytes       int64
	encodeNS    int64
	envelopes   int64
	dataRecv    int64
	etobMsgs    int64
	updates     int64
	updateBytes int64
	promoteLens []int64
	firstSent   map[[4]int64]bool
	buf         bytes.Buffer
}

func newCodecProbe() *codecProbe {
	node.RegisterProtocolTypes()
	return &codecProbe{firstSent: map[[4]int64]bool{}}
}

// reset forgets what boot and warm-up sent.
func (c *codecProbe) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames, c.bytes, c.encodeNS, c.envelopes, c.dataRecv = 0, 0, 0, 0, 0
	c.etobMsgs, c.updates, c.updateBytes, c.promoteLens = 0, 0, 0, nil
}

func (c *codecProbe) sent(m sim.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload := m.Payload
	if d, ok := payload.(retransmit.Data); ok {
		c.envelopes++
		key := [4]int64{int64(m.From), int64(m.To), d.Epoch, d.Seq}
		if c.firstSent[key] {
			payload = nil // a resend: the etob message was counted already
		} else {
			c.firstSent[key] = true
			payload = d.Payload
		}
	}
	switch p := payload.(type) {
	case etob.UpdateMsg:
		c.etobMsgs++
		if m.From == m.To {
			c.updates++
			c.updateBytes += int64(p.CG.WireSize())
		}
	case etob.PromoteMsg:
		c.etobMsgs++
		if m.From == m.To {
			c.promoteLens = append(c.promoteLens, int64(len(p.Seq)))
		}
	}
	if m.From == m.To {
		return // self-frames loop back through the inbox unencoded
	}
	c.buf.Reset()
	start := time.Now()
	c.buf.Write([]byte{0, 0, 0, 0})
	err := gob.NewEncoder(&c.buf).Encode(runtime.Frame{From: m.From, To: m.To, ID: m.ID, SentAt: m.SentAt, Payload: m.Payload})
	c.encodeNS += time.Since(start).Nanoseconds()
	if err == nil {
		c.frames++
		c.bytes += int64(c.buf.Len())
	}
}

func (c *codecProbe) delivered(m sim.Message) {
	if _, ok := m.Payload.(retransmit.Data); ok {
		c.mu.Lock()
		c.dataRecv++
		c.mu.Unlock()
	}
}
