package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"debruijnring/engine"
	"debruijnring/session"
	"debruijnring/topology"
)

// restorePeriods is the number of full snapshot periods every journal
// holds before its tail; the tails are a seeded permutation of
// 0…SnapshotEvery−1 events, so every seed replays the same spread of
// tail lengths.
const (
	restorePeriods  = 2
	restoreSnapshot = 32
)

// restoreExpect is what a restored session must come back as.
type restoreExpect struct {
	hash   string
	faults topology.FaultSet
}

// restoreBench is the failover-restore workload: the local-stream
// population journaled through a session.Manager and left as a crashed
// primary leaves it (no closing snapshot).  One op restores one session
// on a fresh Manager over the directory; a cycle of 32 ops restores the
// whole population into one Manager, as a promotion does, and the
// sessions are released (untimed) before the next cycle.
type restoreBench struct {
	net    topology.Network
	eng    *engine.Engine
	tr     *tracer
	dir    string
	store  session.Store
	names  []string
	expect map[string]restoreExpect

	// mgr is the current promotion's Manager: one cycle restores every
	// session into it, as a promoted standby does.
	mgr        *session.Manager
	next       int
	restored   map[string]bool
	covSum     float64
	releaseErr error
	// journaled and met count the fault and heal events the first
	// restore of each session loads and those whose ring reached the
	// reported lower bound.
	journaled, met int

	mu        sync.Mutex
	loads     int
	replayed  int
	tiers     map[string]int
	journalSz int64
	events    int
}

func setupRestore(cfg *config, dir string) (bench, error) {
	net, err := topology.FromSpec(streamSpec)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{})
	b := &restoreBench{
		net:      net,
		eng:      eng,
		tr:       cfg.tracer,
		dir:      filepath.Join(dir, "journals"),
		expect:   map[string]restoreExpect{},
		restored: map[string]bool{},
		tiers:    map[string]int{},
	}
	writer := session.NewManager(eng, session.Options{Dir: b.dir, SnapshotEvery: restoreSnapshot})
	tails := rand.New(rand.NewSource(seedFor(cfg.seed, 0, 3))).Perm(restoreSnapshot)
	cut := newCutter(net)
	for i := 0; i < streamSessions; i++ {
		name := fmt.Sprintf("ls-%02d", i)
		s, err := writer.Create(name, streamSpec, topology.FaultSet{})
		if err != nil {
			return nil, err
		}
		trace := newSessionTrace(net, cut, cfg.seed, i)
		for e := 0; e < restorePeriods*restoreSnapshot+tails[i]; e++ {
			st := trace.Next()
			edges := make([][2]string, len(st.Req.EdgeFaults))
			for j, ej := range st.Req.EdgeFaults {
				edges[j] = [2]string{ej.From, ej.To}
			}
			batch, err := topology.ParseFaults(net, st.Req.NodeFaults, edges)
			if err != nil {
				return nil, err
			}
			apply := s.AddFaults
			if st.Heal {
				apply = s.RemoveFaults
			}
			ev, err := apply(batch)
			if err != nil && (ev == nil || ev.Repair != "rejected") {
				return nil, fmt.Errorf("%s: journaling event %d: %w", name, e, err)
			}
			trace.Commit(st, err == nil)
			b.events++
		}
		b.expect[name] = restoreExpect{hash: s.StateSnapshot(false).RingHash, faults: trace.Live()}
		b.names = append(b.names, name)
		// Release closes the journal without the closing snapshot a
		// clean shutdown would write: the crashed-primary state.
		if err := writer.Release(name); err != nil {
			return nil, err
		}
	}
	b.store = session.NewDirStore(b.dir)
	b.journalSz = dirBytes(b.dir)
	return b, nil
}

func (b *restoreBench) Callers() int { return 1 }

// loadTimer is the benchmark-side Store wrapper: it records a span
// around Load (when the op is traced) and counts the events a restore will replay (those after the last
// snapshot) with their journaled repair tiers.
type loadTimer struct {
	session.Store
	b  *restoreBench
	op uint64
}

func (l *loadTimer) Load(name string) ([]session.Event, error) {
	var evs []session.Event
	var err error
	l.b.tr.timed(l.op, spanLoad, name, func() { evs, err = l.Store.Load(name) })
	last := -1
	for i, ev := range evs {
		if ev.Kind == "snapshot" {
			last = i
		}
	}
	first := !l.b.restored[name]
	l.b.mu.Lock()
	l.b.loads++
	for i, ev := range evs {
		if ev.Kind != "fault" && ev.Kind != "heal" {
			continue
		}
		if first {
			l.b.journaled++
			if ev.RingLength >= ev.LowerBound {
				l.b.met++
			}
		}
		if i > last {
			l.b.replayed++
			l.b.tiers[ev.Repair]++
		}
	}
	l.b.mu.Unlock()
	return evs, err
}

func (b *restoreBench) Op(_ int, op uint64) opResult {
	if b.next == 0 {
		// A new promotion: a fresh Manager over the journal directory.
		// The previous cycle's sessions are released first, untimed.
		b.releaseAll()
		b.mgr = session.NewManager(b.eng, session.Options{Store: &loadTimer{Store: b.store, b: b}, SnapshotEvery: restoreSnapshot})
	}
	name := b.names[b.next]
	b.next = (b.next + 1) % len(b.names)
	b.mgr.Store().(*loadTimer).op = op
	var s *session.Session
	var err error
	start := time.Now()
	b.tr.timed(op, spanRestore, name, func() { s, err = b.mgr.RestoreNamed(name) })
	out := opResult{Lat: time.Since(start)}
	if err != nil {
		out.Fail = "restore"
		out.Wrong = err.Error()
		return out
	}
	st := s.StateSnapshot(true)
	want := b.expect[name]
	faults := topology.FaultSet{Nodes: st.FaultNodes}
	for _, e := range st.FaultEdges {
		faults.Edges = append(faults.Edges, topology.Edge{From: e[0], To: e[1]})
	}
	switch {
	case st.RingHash != want.hash:
		out.Fail, out.Wrong = "hash", fmt.Sprintf("%s: restored hash %s != journaled %s", name, st.RingHash, want.hash)
	case faults.Canonical().Key() != want.faults.Key():
		out.Fail, out.Wrong = "faults", fmt.Sprintf("%s: restored fault set differs from the journaled one", name)
	case !topology.VerifyRing(b.net, st.Ring, want.faults):
		out.Fail, out.Wrong = "verify", fmt.Sprintf("%s: restored ring fails VerifyRing", name)
	}
	if !b.restored[name] {
		b.restored[name] = true
		b.covSum += float64(len(st.Ring)) / float64(b.net.Nodes()-len(want.faults.Nodes))
	}
	return out
}

// releaseAll releases every session the current promotion restored,
// keeping their journals as they are.
func (b *restoreBench) releaseAll() {
	if b.mgr == nil {
		return
	}
	for _, s := range b.mgr.List() {
		if err := b.mgr.Release(s.Name()); err != nil && b.releaseErr == nil {
			b.releaseErr = err
		}
	}
}

// Settled ends a phase only between promotions, so the heap reading
// after it always holds the whole restored population.
func (b *restoreBench) Settled(int) bool { return len(b.restored) == len(b.names) && b.next == 0 }

// Coverage reads ring coverage off the first restore of each session,
// and the bound-met share off the journaled events those restores load.
func (b *restoreBench) Coverage() (coverage, boundMet float64) {
	return b.covSum / float64(len(b.names)), ratio(float64(b.met), float64(b.journaled))
}

func (b *restoreBench) MarkPhase() {
	b.mu.Lock()
	b.loads, b.replayed = 0, 0
	b.mu.Unlock()
}

func (b *restoreBench) Final() error {
	b.releaseAll()
	b.mgr = nil
	if b.releaseErr != nil {
		return fmt.Errorf("release: %w", b.releaseErr)
	}
	if got := dirBytes(b.dir); got != b.journalSz {
		return fmt.Errorf("restores changed the journals: %d bytes, was %d", got, b.journalSz)
	}
	return nil
}

func (b *restoreBench) Layers(in *layerInput) []metric {
	by := opSpans(in.Spans)
	var restoreNs, loadNs int64
	ops := 0
	for op := in.FirstOp; op <= in.LastOp; op++ {
		r, n := sumKind(by[op], spanRestore)
		if n == 0 {
			continue
		}
		l, _ := sumKind(by[op], spanLoad)
		restoreNs += r
		loadNs += l
		ops++
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	fops := float64(max(ops, 1))
	return []metric{
		{"journal.bytes_per_event", "B", float64(b.journalSz) / float64(b.events)},
		{"journal.load_us", "us", float64(loadNs) / fops / 1e3},
		{"restore.replay_us", "us", float64(restoreNs-loadNs) / fops / 1e3},
		{"restore.replayed_events", "count", ratio(float64(b.replayed), float64(b.loads))},
	}
}

// Tiers is the journaled tier mix of the events restores replay.
func (b *restoreBench) Tiers() []metric {
	b.mu.Lock()
	defer b.mu.Unlock()
	return tierShares(b.tiers)
}

func (b *restoreBench) Close() { b.releaseAll() }
