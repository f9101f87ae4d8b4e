// Package session manages long-lived fault-evolving topologies: where
// the engine package answers one-shot "embed a ring around these
// faults" requests, a session holds a named topology with a live fault
// set — the paper's actual operating regime, in which processors and
// links fail (and are repaired) one after another while the ring keeps
// carrying traffic.
//
// The fault lifecycle is bidirectional.  AddFaults absorbs newly
// failed components and RemoveFaults re-admits repaired ones; both run
// the layered repair ladder of package internal/repair — structural
// FFC surgery first (cut faulted necklaces out along surviving
// shift-edge labels, reorder star windows around faulted ring links,
// re-expand healed necklaces back into the tree), then the generic
// splice tier (local bypass surgery on the live ring, for the fault
// sets the FFC machinery rejects) — falling back to a full re-embed
// only when every tier declines or the paper's f ≤ n fault bound is
// exceeded.  Every transition appends an event to the
// session's journal — fault or heal batch, repair kind, ring delta,
// ring hash — and periodic snapshots capture the full state, so a
// Manager pointed at the same directory after a crash resumes every
// session with an identical ring (replay is deterministic and verified
// hash-by-hash).  Watchers stream the same events over long-poll or
// SSE via the HTTP handler in this package.
package session

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"debruijnring/engine"
	"debruijnring/internal/dense"
	"debruijnring/internal/repair"
	"debruijnring/topology"
)

// Event is one journaled (and watchable) session transition.  The same
// structure serves as the journal line format, the long-poll/SSE payload
// and the AddFaults result.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is "created", "embed" (the initial embedding), "fault" (one
	// absorbed fault batch), "heal" (one re-admitted repair batch) or
	// "snapshot" (journal-only state capture).
	Kind string `json:"kind"`

	// created events:
	Name string `json:"name,omitempty"`
	Spec string `json:"spec,omitempty"`
	// RepairVer stamps the repair-decision semantics the journal was
	// recorded under (see repairSemVer).  Replay re-runs those
	// decisions, so a journal from a build with different semantics can
	// diverge; the version turns the resulting hash mismatch into an
	// actionable error.  0 on journals predating the stamp.
	RepairVer int `json:"repair_ver,omitempty"`

	// fault/heal events: the canonicalized batch added (or removed)
	// this event and how it was served — "local" (structural tier),
	// "splice" (the generic bypass tier, after the structural tier
	// declined), "reembed", "noop" or "rejected".
	AddNodes    []int    `json:"add_nodes,omitempty"`
	AddEdges    [][2]int `json:"add_edges,omitempty"`
	RemoveNodes []int    `json:"remove_nodes,omitempty"`
	RemoveEdges [][2]int `json:"remove_edges,omitempty"`
	Repair      string   `json:"repair,omitempty"`
	Error       string   `json:"error,omitempty"`
	// Tiers is the repair-tier descent that produced Repair: each rung
	// of the FFC → splice → re-embed ladder that ran, with its outcome,
	// touched-structure count and latency.  Carried on journal lines
	// and watch/SSE payloads; replay ignores it (ring hashes are the
	// determinism check).
	Tiers []TierTrace `json:"tiers,omitempty"`

	// Ring bookkeeping after the event: length, the paper's lower bound,
	// cumulative deduplicated fault count, and an FNV-64a hash of the
	// ring used to verify deterministic journal replay.
	RingLength int    `json:"ring_length,omitempty"`
	LowerBound int    `json:"lower_bound,omitempty"`
	FaultCount int    `json:"fault_count,omitempty"`
	RingHash   string `json:"ring_hash,omitempty"`
	ElapsedNs  int64  `json:"elapsed_ns,omitempty"`

	// Ring delta: nodes that left and (re-embeds only) rejoined the
	// ring.  Omitted when larger than deltaLimit, flagged by
	// DeltaTruncated.
	Removed        []int `json:"removed,omitempty"`
	Added          []int `json:"added,omitempty"`
	DeltaTruncated bool  `json:"delta_truncated,omitempty"`

	// snapshot events (journal-only): the full state to resume from.
	Ring       []int           `json:"ring,omitempty"`
	FaultNodes []int           `json:"fault_nodes,omitempty"`
	FaultEdges [][2]int        `json:"fault_edges,omitempty"`
	Patcher    json.RawMessage `json:"patcher,omitempty"`
	Stats      *Stats          `json:"stats,omitempty"`
}

// deltaLimit bounds the Removed/Added lists carried on events; larger
// deltas report lengths only.
const deltaLimit = 128

// repairSemVer identifies the current repair-decision semantics.  Bump
// it whenever the deterministic repair path changes shape (which ring a
// given fault history produces): 2 = the bidirectional lifecycle with
// star-reorder link absorption; 3 = the layered repair chain (splice
// tier between structural repair and re-embed, multi-hop bypass heal);
// journals without a stamp predate the versioning.
const repairSemVer = 3

// Stats counts a session's fault and heal events by outcome.
// LocalRepairs/SpliceRepairs/Reembeds cover fault batches;
// LocalHeals/SpliceHeals/HealReembeds cover heal batches; Noops and
// Rejected cover both directions.  The splice counters are the middle
// rung of the repair ladder: batches the structural tier declined but
// the generic splice tier absorbed without a re-embed.
type Stats struct {
	Events        int64 `json:"events"`
	LocalRepairs  int64 `json:"local_repairs"`
	Reembeds      int64 `json:"reembeds"`
	Noops         int64 `json:"noops"`
	Rejected      int64 `json:"rejected"`
	LocalHeals    int64 `json:"local_heals,omitempty"`
	HealReembeds  int64 `json:"heal_reembeds,omitempty"`
	SpliceRepairs int64 `json:"splice_repairs,omitempty"`
	SpliceHeals   int64 `json:"splice_heals,omitempty"`
}

// Session is one fault-evolving topology with its current ring.  All
// methods are safe for concurrent use.
type Session struct {
	name string
	spec string
	net  topology.RingEmbedder
	mgr  *Manager

	mu        sync.Mutex
	patcher   repair.Patcher
	faults    topology.FaultSet
	ring      []int
	ringHash  string // ringHash(ring), kept in step by setRingLocked
	rounds    int    // broadcast rounds of the last full embed
	seq       uint64
	stats     Stats
	journal   JournalWriter // nil when persistence is off
	sinceSnap int
	closed    bool

	// events is a bounded buffer of recent events for watchers and the
	// trace endpoint; notify is closed and replaced on every publish.
	events []Event
	notify chan struct{}
}

// Name returns the session's unique name.
func (s *Session) Name() string { return s.name }

// Spec returns the topology spec the session was created with.
func (s *Session) Spec() string { return s.spec }

// Network returns the session's topology.
func (s *Session) Network() topology.RingEmbedder { return s.net }

// State is a point-in-time snapshot of a session.
type State struct {
	Name       string   `json:"name"`
	Spec       string   `json:"spec"`
	Seq        uint64   `json:"seq"`
	Ring       []int    `json:"ring,omitempty"`
	RingLength int      `json:"ring_length"`
	LowerBound int      `json:"lower_bound"`
	RingHash   string   `json:"ring_hash"`
	FaultNodes []int    `json:"fault_nodes,omitempty"`
	FaultEdges [][2]int `json:"fault_edges,omitempty"`
	Stats      Stats    `json:"stats"`
}

// StateSnapshot returns the session's current state.  includeRing
// controls whether the (possibly large) ring itself is copied.
func (s *Session) StateSnapshot(includeRing bool) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Name:       s.name,
		Spec:       s.spec,
		Seq:        s.seq,
		RingLength: len(s.ring),
		LowerBound: s.lowerBoundLocked(),
		RingHash:   s.ringHash,
		FaultNodes: append([]int(nil), s.faults.Nodes...),
		FaultEdges: encodeEdges(s.faults.Edges),
		Stats:      s.stats,
	}
	if includeRing {
		st.Ring = append([]int(nil), s.ring...)
	}
	return st
}

// IsClosed reports whether the session has been deleted or shut down;
// watchers use it to end their streams instead of spinning on the
// immediately-returning EventsSince.
func (s *Session) IsClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Ring returns a copy of the current ring.
func (s *Session) Ring() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.ring...)
}

// Faults returns the cumulative canonical fault set.
func (s *Session) Faults() topology.FaultSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// lowerBoundLocked is the guaranteed minimum ring length under the
// current fault load; see lowerBoundFor.
func (s *Session) lowerBoundLocked() int { return s.lowerBoundFor(s.faults) }

// withinToleranceLocked gates local repair on the paper's f ≤ n bound
// for De Bruijn sessions (beyond it the dⁿ − nf guarantee degrades and
// the full algorithm should re-balance the ring); other topologies
// always try the patch.
func (s *Session) withinToleranceLocked(combined topology.FaultSet) bool {
	db, ok := s.net.(*topology.DeBruijn)
	if !ok {
		return true
	}
	return len(combined.Nodes) <= db.WordLen()
}

// AddFaults absorbs one batch of newly failed components (the fault set
// can shrink again later via RemoveFaults).  It attempts a local repair
// of the current ring, falls back to a full re-embed, journals the
// transition and wakes watchers.  On error the session keeps its
// previous ring and fault set (the event is still journaled as rejected
// so replay stays faithful).
func (s *Session) AddFaults(add topology.FaultSet) (*Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session %q: %w", s.name, ErrClosed)
	}
	if err := add.Validate(s.net); err != nil {
		return nil, err
	}
	ev, err := s.applyFaultsLocked(add, true)
	s.maybeSnapshotLocked(ev)
	return ev, err
}

// RemoveFaults re-admits one batch of repaired components, shrinking
// the session's fault set — the heal direction of the lifecycle.  It
// attempts a local un-patch of the current ring (re-expand the healed
// necklaces, drop the healed links from the avoidance set), falls back
// to a full re-embed around the reduced fault set, journals the
// transition as a "heal" event and wakes watchers.  Healing components
// that were never faulty is a no-op.  On error the session keeps its
// previous ring and fault set (the event is still journaled as rejected
// so replay stays faithful).
func (s *Session) RemoveFaults(remove topology.FaultSet) (*Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session %q: %w", s.name, ErrClosed)
	}
	if err := remove.Validate(s.net); err != nil {
		return nil, err
	}
	ev, err := s.applyHealLocked(remove, true)
	s.maybeSnapshotLocked(ev)
	return ev, err
}

// maybeSnapshotLocked writes a journal snapshot when the event cadence
// is due.
func (s *Session) maybeSnapshotLocked(ev *Event) {
	if ev != nil && s.journal != nil && s.sinceSnap >= s.mgr.opts.SnapshotEvery {
		s.writeSnapshotLocked()
	}
}

// applyFaultsLocked runs the repair lifecycle for one validated fault
// batch.  With record=false (journal replay) nothing is written and the
// engine's counters stay untouched; the decision path is deterministic,
// so replay reproduces the live rings exactly.
func (s *Session) applyFaultsLocked(add topology.FaultSet, record bool) (*Event, error) {
	start := time.Now()
	add = add.Canonical()
	combined := s.faults.Union(add)
	ev := &Event{
		Kind:       "fault",
		AddNodes:   append([]int(nil), add.Nodes...),
		AddEdges:   encodeEdges(add.Edges),
		FaultCount: len(combined.Nodes) + len(combined.Edges),
	}
	ring, err := s.ladderLocked(ev, add.Minus(s.faults), combined)
	return s.settleLocked(ev, ring, combined, err, start, record)
}

// applyHealLocked runs the repair lifecycle for one validated heal
// batch — the inverse of applyFaultsLocked, under the same replay
// contract.
func (s *Session) applyHealLocked(remove topology.FaultSet, record bool) (*Event, error) {
	start := time.Now()
	remove = remove.Canonical()
	reduced := s.faults.Minus(remove)
	ev := &Event{
		Kind:        "heal",
		RemoveNodes: append([]int(nil), remove.Nodes...),
		RemoveEdges: encodeEdges(remove.Edges),
		FaultCount:  len(reduced.Nodes) + len(reduced.Edges),
	}
	// Only the part of remove that was actually faulty heals anything.
	ring, err := s.ladderLocked(ev, s.faults.Minus(reduced), reduced)
	return s.settleLocked(ev, ring, reduced, err, start, record)
}

// ladderLocked serves one fault or heal event (ev.Kind picks Patch or
// Unpatch) that changes the fault set by delta to target: noop when
// delta is empty, else the patcher's local tiers when within
// tolerance, else the re-embed fallback.  It sets ev.Repair and
// ev.Tiers and returns the new ring (nil = unchanged).  A non-nil
// error means every tier failed and the event is a rejection.
func (s *Session) ladderLocked(ev *Event, delta, target topology.FaultSet) ([]int, error) {
	if delta.IsEmpty() {
		ev.Repair = "noop"
		return nil, nil
	}
	if s.withinToleranceLocked(target) {
		var r []int
		var outcome repair.Outcome
		if ev.Kind == "heal" {
			r, outcome = s.patcher.Unpatch(delta)
		} else {
			r, outcome = s.patcher.Patch(delta)
		}
		ev.Tiers = tierTraces(s.patcher)
		switch outcome {
		case repair.Noop:
			ev.Repair = "noop"
			return nil, nil
		case repair.Patched, repair.Reordered, repair.Readmitted, repair.Spliced:
			// Patch yields Patched/Reordered, Unpatch Readmitted, either
			// Spliced; the candidate must still pass verification.
			if topology.VerifyRing(s.net, r, target) && len(r) >= s.lowerBoundFor(target) {
				ev.Repair = "local"
				if outcome == repair.Spliced {
					ev.Repair = "splice"
				}
				return r, nil
			}
		}
	}
	return s.reembedLocked(ev, target)
}

// reembedLocked is the last rung of the ladder: a full re-embed around
// target, traced as the "reembed" tier.
func (s *Session) reembedLocked(ev *Event, target topology.FaultSet) ([]int, error) {
	embedStart := time.Now()
	r, info, err := s.patcher.Embed(target)
	step := TierTrace{Tier: "reembed", Outcome: "ok", ElapsedNs: time.Since(embedStart).Nanoseconds()}
	if err != nil {
		step.Outcome = "error"
	} else {
		ev.Repair = "reembed"
		s.rounds = info.Rounds
	}
	ev.Tiers = append(ev.Tiers, step)
	return r, err
}

// settleLocked is the shared tail of a fault or heal event.  On
// embedErr the batch is rejected: the session keeps its previous ring
// and fault set and the rejection is still journaled (replay must take
// the same path).  Otherwise ring (nil = unchanged) and target become
// the session state.  Either way the event gets its ring bookkeeping,
// is tallied and finished.
func (s *Session) settleLocked(ev *Event, ring []int, target topology.FaultSet, embedErr error, start time.Time, record bool) (*Event, error) {
	if embedErr != nil {
		ev.Repair = "rejected"
		ev.Error = embedErr.Error()
	} else {
		if ring != nil {
			ev.Removed, ev.Added, ev.DeltaTruncated = ringDelta(s.net.Nodes(), s.ring, ring)
			s.setRingLocked(ring)
		}
		s.faults = target
		ev.LowerBound = s.lowerBoundFor(target)
	}
	ev.RingLength = len(s.ring)
	ev.RingHash = s.ringHash
	s.finishEventLocked(ev, start, record, s.stats.tally(ev.Kind == "heal", ev.Repair))
	return ev, embedErr
}

// setRingLocked installs ring as the session's ring together with its
// hash.  It is the only writer of s.ring, so the hash is computed once
// per ring change and every reader (events, state, snapshots, replay
// checks) shares it.
func (s *Session) setRingLocked(ring []int) {
	s.ring = ring
	s.ringHash = ringHash(ring)
}

// tally bumps the counter for one settled event, by direction and
// served repair, and returns the matching engine RepairKind.  It is
// the one place the (direction, outcome) → (kind, stat) map lives.
func (st *Stats) tally(heal bool, served string) engine.RepairKind {
	switch {
	case served == "rejected":
		st.Rejected++
		return engine.RepairRejected
	case served == "local" && heal:
		st.LocalHeals++
		return engine.RepairHealLocal
	case served == "local":
		st.LocalRepairs++
		return engine.RepairLocal
	case served == "splice" && heal:
		st.SpliceHeals++
		return engine.RepairSpliceHeal
	case served == "splice":
		st.SpliceRepairs++
		return engine.RepairSplice
	case served == "reembed" && heal:
		st.HealReembeds++
		return engine.RepairHealReembed
	case served == "reembed":
		st.Reembeds++
		return engine.RepairReembed
	}
	st.Noops++
	return engine.RepairNoop
}

// lowerBoundFor computes the De Bruijn dⁿ − nf bound for a prospective
// fault set (0 for other topologies or when vacuous; other topologies'
// bounds live on their own embed info).
func (s *Session) lowerBoundFor(f topology.FaultSet) int {
	db, ok := s.net.(*topology.DeBruijn)
	if !ok {
		return 0
	}
	b := db.Nodes() - db.WordLen()*len(f.Nodes)
	if b < 0 {
		return 0
	}
	return b
}

// finishEventLocked stamps, sequences, publishes and (when record is
// set) journals one event and feeds the engine's per-tier repair
// counters and latency histograms.
func (s *Session) finishEventLocked(ev *Event, start time.Time, record bool, kind engine.RepairKind) {
	s.seq++
	ev.Seq = s.seq
	ev.Time = time.Now().UTC()
	ev.ElapsedNs = time.Since(start).Nanoseconds()
	s.stats.Events++
	s.sinceSnap++
	s.publishLocked(*ev)
	if record {
		s.appendJournal(*ev)
		if s.mgr != nil && s.mgr.eng != nil {
			s.mgr.eng.RecordRepair(kind, time.Duration(ev.ElapsedNs))
		}
	}
}

// appendJournal writes one event through the store's journal writer.
// Append errors do not fail the event — the in-memory state machine is
// authoritative for a live session and degrading to memory-only beats
// rejecting traffic — but the lost durability is counted in the
// engine's session_journal_errors_total so a degrading session is
// visible on /metrics before a restart loses its tail.
func (s *Session) appendJournal(ev Event) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(ev); err != nil && s.mgr != nil && s.mgr.eng != nil {
		s.mgr.eng.RecordJournalError()
	}
}

// eventBuffer is the per-session count of retained events: the watch
// backlog and the window /trace projects its records from.
const eventBuffer = 256

// publishLocked appends the event to the watch buffer and wakes every
// waiting watcher.
func (s *Session) publishLocked(ev Event) {
	if len(s.events) >= eventBuffer {
		s.events = append(s.events[:0], s.events[len(s.events)-eventBuffer+1:]...)
	}
	s.events = append(s.events, ev)
	close(s.notify)
	s.notify = make(chan struct{})
}

// EventsSince returns buffered events with Seq > after.  When none are
// available it blocks up to wait (0 = return immediately) for the next
// publish.  truncated reports that older events have been evicted from
// the buffer: the watcher should refetch the full session state.
func (s *Session) EventsSince(after uint64, wait time.Duration, cancel <-chan struct{}) (evs []Event, truncated bool) {
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		if len(s.events) > 0 && s.events[0].Seq > after+1 {
			truncated = true
		}
		for _, ev := range s.events {
			if ev.Seq > after {
				evs = append(evs, ev)
			}
		}
		notify := s.notify
		closed := s.closed
		s.mu.Unlock()
		if len(evs) > 0 || closed || wait <= 0 {
			return evs, truncated
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, truncated
		}
		timer := time.NewTimer(remain)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			return nil, truncated
		case <-cancel:
			timer.Stop()
			return nil, truncated
		}
	}
}

// writeSnapshotLocked appends a journal-only snapshot event capturing
// the full session state (ring, faults, patcher structure), resetting
// the replay horizon.
func (s *Session) writeSnapshotLocked() {
	if s.journal == nil {
		return
	}
	state, err := s.patcher.Snapshot()
	if err != nil {
		state = nil
	}
	stats := s.stats
	s.appendJournal(Event{
		Seq:        s.seq,
		Time:       time.Now().UTC(),
		Kind:       "snapshot",
		RingHash:   s.ringHash,
		RingLength: len(s.ring),
		Ring:       s.ring,
		FaultNodes: s.faults.Nodes,
		FaultEdges: encodeEdges(s.faults.Edges),
		Patcher:    state,
		Stats:      &stats,
	})
	s.sinceSnap = 0
}

// closeLocked marks the session closed, optionally writing a final
// snapshot, and releases the journal handle.
func (s *Session) closeLocked(snapshot bool) {
	if s.closed {
		return
	}
	if snapshot && s.sinceSnap > 0 {
		s.writeSnapshotLocked()
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.closed = true
	close(s.notify)
	s.notify = make(chan struct{})
}

// ringHash is an FNV-64a digest of the ring's node sequence, rendered in
// hex; journal replay verifies restored rings against it.
func ringHash(ring []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ring {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:]) //ringlint:allow journal hash.Hash writes never return an error
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// deltaSets pools the epoch-stamped node sets ringDelta marks rings
// in.  A shared pool, not per-session scratch, keeps the heap flat in
// the number of sessions.
var deltaSets = sync.Pool{New: func() any { return new(dense.Set) }}

// ringDelta diffs two rings over nodes [0, n) as node sets: removed in
// old's order, added in cur's order, both nil (truncated) when the
// delta exceeds deltaLimit.  One pooled set serves both passes, so the
// cost is linear in the rings with no per-event map.
func ringDelta(n int, old, cur []int) (removed, added []int, truncated bool) {
	seen := deltaSets.Get().(*dense.Set)
	defer deltaSets.Put(seen)
	markRing(seen, n, old)
	for _, v := range cur {
		if !seen.Has(v) {
			if added = append(added, v); len(added) > deltaLimit {
				return nil, nil, true
			}
		}
	}
	markRing(seen, n, cur)
	for _, v := range old {
		if !seen.Has(v) {
			if removed = append(removed, v); len(removed)+len(added) > deltaLimit {
				return nil, nil, true
			}
		}
	}
	return removed, added, false
}

// markRing resets set to [0, n) and marks every node of ring.
//
//ringlint:noalloc
func markRing(set *dense.Set, n int, ring []int) {
	set.Reset(n)
	for _, v := range ring {
		set.Add(v)
	}
}

func encodeEdges(edges []topology.Edge) [][2]int {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{e.From, e.To}
	}
	return out
}

func decodeEdges(pairs [][2]int) []topology.Edge {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]topology.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = topology.Edge{From: p[0], To: p[1]}
	}
	return out
}

// errSessionExists reports a Create against a name already in use.
var errSessionExists = errors.New("session: name already in use")

// ErrClosed is the sentinel wrapped by every mutation attempted after a
// session or its manager has been closed (shutdown or deletion): the
// journal writer is released at close, so post-Close traffic is refused
// instead of racing it.  Check with errors.Is(err, session.ErrClosed).
var ErrClosed = errors.New("session: closed")
