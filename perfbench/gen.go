package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The benchmark's inputs: an open-loop stream of writes ("set k<j> <i>") and
// reads of one key, drawn up front from the workload seed. Only these
// generated operations reach the program under test.

const (
	numKeys     = 64
	numSessions = 64
)

// op is one generated client operation.
type op struct {
	write   bool
	key     int     // the op touches key "k<key>"
	val     int     // writes: the value carried, which is the write's index
	session int     // client session; decides the replica, as the front door does
	due     float64 // when the op is due: kernel ticks (sim) or seconds (live)
}

func (o op) keyName() string { return "k" + strconv.Itoa(o.key) }

// command is the state-machine command of a write.
func (o op) command() string { return fmt.Sprintf("set k%d %d", o.key, o.val) }

// writeIndex parses the write index back out of a command ("set k<j> <i>").
func writeIndex(cmd string) (int, bool) {
	sp := strings.LastIndexByte(cmd, ' ')
	if sp < 0 || !strings.HasPrefix(cmd, "set k") {
		return 0, false
	}
	i, err := strconv.Atoi(cmd[sp+1:])
	return i, err == nil && i >= 0
}

// schedule is a generated workload: writes and reads merged in due order.
type schedule struct {
	ops    []op
	writes []op // writes[i].val == i
	reads  int
}

// genSchedule draws independent Poisson streams of writes (writeRate per unit
// of due time) and reads (readRate), with uniform keys and sessions. It stops
// after maxWrites writes or at horizon, whichever comes first; start offsets
// the first arrival.
func genSchedule(seed int64, writeRate, readRate float64, maxWrites int, start, horizon float64) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	nextW := start + rng.ExpFloat64()/writeRate
	nextR := start + rng.ExpFloat64()/readRate
	for len(s.writes) < maxWrites {
		if readRate > 0 && nextR < nextW {
			if nextR > horizon {
				break
			}
			s.ops = append(s.ops, op{key: rng.Intn(numKeys), session: rng.Intn(numSessions), due: nextR})
			s.reads++
			nextR += rng.ExpFloat64() / readRate
			continue
		}
		if nextW > horizon {
			break
		}
		w := op{write: true, key: rng.Intn(numKeys), val: len(s.writes), session: rng.Intn(numSessions), due: nextW}
		s.ops = append(s.ops, w)
		s.writes = append(s.writes, w)
		nextW += rng.ExpFloat64() / writeRate
	}
	return s
}

// sessionName is the affinity key a client sends (X-Session).
func sessionName(session int) string { return "s" + strconv.Itoa(session) }

// rendezvous ranks replica IDs for a session best first, exactly as the front
// door (internal/lb) does: FNV-1a over session, NUL, replica ID; highest
// score wins, ties by ID.
func rendezvous(session string, ids []string) []string {
	type scored struct {
		id string
		s  uint64
	}
	c := make([]scored, len(ids))
	for i, id := range ids {
		h := fnv.New64a()
		io.WriteString(h, session)
		io.WriteString(h, "\x00")
		io.WriteString(h, id)
		c[i] = scored{id, h.Sum64()}
	}
	sort.Slice(c, func(i, j int) bool {
		if c[i].s != c[j].s {
			return c[i].s > c[j].s
		}
		return c[i].id < c[j].id
	})
	out := make([]string, len(c))
	for i, x := range c {
		out[i] = x.id
	}
	return out
}

// validRead reports whether a read of key returned a value that some write to
// that key carried ("" means not found, always valid).
func validRead(writes []op, key int, val string) bool {
	if val == "" {
		return true
	}
	i, err := strconv.Atoi(val)
	return err == nil && i >= 0 && i < len(writes) && writes[i].key == key
}

// kvPairs parses a KV snapshot ("k=v,k=v").
func kvPairs(snap string) map[string]string {
	m := make(map[string]string)
	if snap == "" {
		return m
	}
	for _, pair := range strings.Split(snap, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok {
			m[k] = v
		}
	}
	return m
}

// lookup returns key's value in a KV snapshot, "" when absent.
func lookup(snap, key string) string {
	for len(snap) > 0 {
		pair := snap
		if i := strings.IndexByte(snap, ','); i >= 0 {
			pair, snap = snap[:i], snap[i+1:]
		} else {
			snap = ""
		}
		if k, v, ok := strings.Cut(pair, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// checkFinal verifies the replicas' final KV snapshots: all identical, every
// key of a visible write present, and every value one that a write (of all
// writes generated) to that key carried.
func checkFinal(all, visible []op, snaps []string) error {
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			return fmt.Errorf("replica snapshots differ (replica 1 vs %d)", i+1)
		}
	}
	m := kvPairs(snaps[0])
	for k, v := range m {
		key, err := strconv.Atoi(strings.TrimPrefix(k, "k"))
		if !strings.HasPrefix(k, "k") || err != nil || v == "" || !validRead(all, key, v) {
			return fmt.Errorf("key %s holds %q, not a value written to it", k, v)
		}
	}
	for _, w := range visible {
		if _, ok := m[w.keyName()]; !ok {
			return fmt.Errorf("key %s missing, though write %d to it became visible", w.keyName(), w.val)
		}
	}
	return nil
}
