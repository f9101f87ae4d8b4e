package session

import (
	"time"

	"debruijnring/internal/repair"
)

// TierTrace is one repair tier's attempt inside a fault/heal event:
// which rung of the FFC → splice → re-embed ladder ran, how it
// answered, how much structure it touched (stars re-closed for the
// structural tier, arcs/insertions for the splice tier) and how long
// it took.  Events carry the full descent, so a re-embed event still
// shows which tiers declined first (and how much time they burned).
type TierTrace struct {
	Tier      string `json:"tier"`    // "ffc", "splice" or "reembed"
	Outcome   string `json:"outcome"` // repair.Outcome string; "ok"/"error" for reembed
	Touched   int    `json:"touched,omitempty"`
	ElapsedNs int64  `json:"elapsed_ns"`
}

// tierTraces converts the patcher's last tier ladder, when the patcher
// records one.  Must be called immediately after Patch/Unpatch — the
// next patcher call invalidates the underlying steps.
func tierTraces(p repair.Patcher) []TierTrace {
	tr, ok := p.(repair.Tracer)
	if !ok {
		return nil
	}
	steps := tr.LastTrace()
	if len(steps) == 0 {
		return nil
	}
	out := make([]TierTrace, len(steps))
	for i, st := range steps {
		out[i] = TierTrace{
			Tier:      st.Tier,
			Outcome:   st.Outcome.String(),
			Touched:   st.Touched,
			ElapsedNs: st.Elapsed.Nanoseconds(),
		}
	}
	return out
}

// TraceRecord is one per-session repair trace: the journal outcome of
// a fault/heal event plus its tier descent, served by
// GET /v1/sessions/{name}/trace.  It is a projection of the Event in
// the session's watch buffer, not a separate record.
type TraceRecord struct {
	Seq        uint64      `json:"seq"`
	Time       time.Time   `json:"time"`
	Kind       string      `json:"kind"`   // "fault" or "heal"
	Repair     string      `json:"repair"` // journal outcome: local/splice/reembed/noop/rejected
	Tiers      []TierTrace `json:"tiers,omitempty"`
	RingLength int         `json:"ring_length"`
	FaultCount int         `json:"fault_count"`
	ElapsedNs  int64       `json:"elapsed_ns"`
	Error      string      `json:"error,omitempty"`
}

// Traces projects the fault and heal events of the watch buffer into
// trace records, oldest first; limit > 0 keeps only the most recent
// limit.  Events rebuilt by journal replay are in the buffer too, so a
// restored or promoted session serves them with the replay's own
// Tiers and ElapsedNs.
func (s *Session) Traces(limit int) []TraceRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []TraceRecord
	for _, ev := range s.events {
		if ev.Kind != "fault" && ev.Kind != "heal" {
			continue
		}
		recs = append(recs, TraceRecord{
			Seq:        ev.Seq,
			Time:       ev.Time,
			Kind:       ev.Kind,
			Repair:     ev.Repair,
			Tiers:      ev.Tiers,
			RingLength: ev.RingLength,
			FaultCount: ev.FaultCount,
			ElapsedNs:  ev.ElapsedNs,
			Error:      ev.Error,
		})
	}
	if limit > 0 && len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	return recs
}
