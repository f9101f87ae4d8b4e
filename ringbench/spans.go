package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, one per boundary the traced run records.  The program
// under test carries no span code: every span comes from a wrapper in
// this package.
const (
	spanClient  = "client"  // root: one client call (or one in-process call)
	spanRouter  = "router"  // http.Handler wrapper around fleet.Router
	spanPrimary = "primary" // http.Handler wrapper around the primary shard
	spanReplica = "replica" // http.Handler wrapper around the standby shard
	spanEmbed   = "embed"   // engine.EmbedRing
	spanRestore = "restore" // Manager.RestoreNamed
	spanLoad    = "load"    // Store.Load
	// Children taken from the event the program returned: the session
	// event time and one span per repair tier.  They carry durations
	// only (Start 0).
	spanSession = "session"
	spanTier    = "tier"
)

// opHeader carries the op id from the client transport through the
// router to the primary, so every span of one op shares its id.
const opHeader = "X-Ringbench-Op"

// span is one recorded interval.  Start/End are nanoseconds since the
// tracer's epoch.  Op is 0 for replica spans until they are attached to
// a primary span of the same session by time containment.
type span struct {
	Op      uint64 `json:"op"`
	Kind    string `json:"kind"`
	Name    string `json:"name,omitempty"` // session name or tier name
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Outcome string `json:"outcome,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on; writeSpans dumps them at the
// end of the run.  While off, the wrappers cost one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newOp allocates an op id (0 while tracing is off).
func (t *tracer) newOp() uint64 {
	if !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

type opKey struct{}

func withOp(ctx context.Context, op uint64) context.Context {
	if op == 0 {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, op)
}

// timed runs fn as a span of the given kind when op is non-zero.
func (t *tracer) timed(op uint64, kind, name string, fn func()) {
	if op == 0 {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{Op: op, Kind: kind, Name: name, Start: start, End: t.now()})
}

// opTransport stamps the op id of the request's context on the wire.
type opTransport struct{ base http.RoundTripper }

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (o opTransport) CloseIdleConnections() {
	if c, ok := o.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (o opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op, ok := r.Context().Value(opKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	return o.base.RoundTrip(r)
}

// wrap records one span per request served by h.  Session-path spans
// take the session name from the URL; replica appends read it from
// the body (restored before h sees it), since replication requests do
// not carry the op id.
func (t *tracer) wrap(kind string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		name := sessionFromPath(r.URL.Path)
		if kind == spanReplica && r.URL.Path == "/v1/replica/append" {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var head struct {
					Name string `json:"name"`
				}
				if json.Unmarshal(body, &head) == nil {
					name = head.Name
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		h.ServeHTTP(w, r)
		t.add(span{Op: op, Kind: kind, Name: name, Start: start, End: t.now()})
	})
}

func sessionFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	return name
}

// snapshot returns the recorded spans with replica spans attached: each
// takes the op of the primary span of the same session that contains
// it in time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	primaries := make(map[string][]span)
	for _, p := range spans {
		if p.Kind == spanPrimary {
			primaries[p.Name] = append(primaries[p.Name], p)
		}
	}
	for i := range spans {
		r := &spans[i]
		if r.Kind != spanReplica || r.Op != 0 {
			continue
		}
		for _, p := range primaries[r.Name] {
			if p.Start <= r.Start && r.End <= p.End {
				r.Op = p.Op
				break
			}
		}
	}
	return spans
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opSpans groups spans by op id.
func opSpans(spans []span) map[uint64][]span {
	by := make(map[uint64][]span)
	for _, s := range spans {
		if s.Op != 0 {
			by[s.Op] = append(by[s.Op], s)
		}
	}
	return by
}

// sumKind totals the durations of one kind among an op's spans.
func sumKind(spans []span, kind string) (total int64, n int) {
	for _, s := range spans {
		if s.Kind == kind {
			total += s.dur()
			n++
		}
	}
	return total, n
}

func spanFileName(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
