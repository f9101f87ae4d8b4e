// Package engine provides a concurrent ring-embedding engine over the
// topology-generic Network interface: a single codepath that serves
// EmbedRing-style requests for every adapter, memoizes results in an LRU
// cache keyed by (topology, canonicalized fault set), collapses
// duplicate in-flight computations, runs batches across a worker pool
// and reports per-request statistics (cache hit, rounds, ring length
// against the dⁿ − nf bound).
//
// The engine's obs registry is the only store of its counters: cache
// hits, misses and evictions, session repair outcomes and replica
// appends are registry counters bumped lock-free on their hot paths,
// and CacheStats and Stats (the /v1/stats payload) are views read from
// them.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"debruijnring/obs"
	"debruijnring/topology"
)

// topologyInfo aliases the embedding bookkeeping cached per entry.
type topologyInfo = topology.EmbedInfo

// Options configures an Engine.  The zero value picks sensible defaults.
type Options struct {
	// Workers bounds batch concurrency; 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the LRU capacity in (topology, fault set) entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// Registry receives the engine's metrics (request latency
	// histogram, per-tier repair histograms, cache counters).  Nil
	// creates a private registry, reachable via Engine.Registry.
	Registry *obs.Registry
}

// DefaultCacheSize is the LRU capacity used when Options.CacheSize is 0.
const DefaultCacheSize = 512

// Engine embeds fault-free rings concurrently with memoization.  It is
// safe for concurrent use.
type Engine struct {
	workers int

	reg     *obs.Registry
	latHist *obs.Histogram // engine_request_ns
	// Per-tier repair latency histograms and outcome counters, indexed
	// by RepairKind; resolved once so the record path is lock-free on
	// the registry side.
	repairNs    [numRepairKinds]*obs.Histogram
	repairTotal [numRepairKinds]*obs.Counter
	journalErrs *obs.Counter // session_journal_errors_total
	// Cache and replication counters (engine_cache_*_total,
	// fleet_replica_*_total).
	hits, misses, evicted         *obs.Counter
	replicaAppends, replicaErrors *obs.Counter

	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*flight
}

// flight is one in-progress embedding; duplicate concurrent requests for
// the same key wait on done and share the result (counted as cache hits).
type flight struct {
	done chan struct{}
	ring []int
	info topologyInfo
	err  error
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cache *lruCache
	switch {
	case opts.CacheSize == 0:
		cache = newLRU(DefaultCacheSize)
	case opts.CacheSize > 0:
		cache = newLRU(opts.CacheSize)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{workers: workers, cache: cache, inflight: make(map[string]*flight), reg: reg}
	reg.SetHelp("engine_request_ns", "embed request latency (cache hits included, failures excluded)")
	reg.SetHelp("session_repair_ns", "session fault-event latency by resolving repair tier")
	reg.SetHelp("session_repair_total", "session fault events by resolving repair tier")
	e.latHist = reg.Histogram("engine_request_ns")
	for kind := RepairKind(0); kind < numRepairKinds; kind++ {
		e.repairNs[kind] = reg.Histogram("session_repair_ns", "tier", kind.String())
		e.repairTotal[kind] = reg.Counter("session_repair_total", "tier", kind.String())
	}
	reg.SetHelp("session_journal_errors_total", "session journal appends that failed (session degraded to memory-only durability)")
	e.journalErrs = reg.Counter("session_journal_errors_total")
	reg.SetHelp("engine_cache_hits_total", "embed cache hits (in-flight collapses included)")
	reg.SetHelp("engine_cache_entries", "live embed cache entries")
	e.hits = reg.Counter("engine_cache_hits_total")
	e.misses = reg.Counter("engine_cache_misses_total")
	e.evicted = reg.Counter("engine_cache_evicted_total")
	e.replicaAppends = reg.Counter("fleet_replica_appends_total")
	e.replicaErrors = reg.Counter("fleet_replica_errors_total")
	reg.AddCollector(func(r *obs.Registry) {
		e.mu.Lock()
		entries := e.cache.len()
		e.mu.Unlock()
		r.Gauge("engine_cache_entries").Set(int64(entries))
	})
	return e
}

// Registry returns the engine's metrics registry (never nil).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Request names one embedding: a network (either directly or as a
// topology.FromSpec string) and the components that failed.
type Request struct {
	// Network to embed in; takes precedence over Spec when non-nil.
	Network topology.RingEmbedder
	// Spec is a textual topology spec such as "debruijn(4,6)", resolved
	// with topology.FromSpec when Network is nil.
	Spec string
	// Faults lists the failed processors and links.
	Faults topology.FaultSet
}

// Stats reports the bookkeeping of one served request.
type Stats struct {
	Topology string `json:"topology"`
	CacheHit bool   `json:"cache_hit"`
	// RingLength is len(Result.Ring): processors for unit-dilation
	// embeddings, walk hops for dilation-2 closed walks (see
	// topology.EmbedInfo.RingLength; Survivors carries the processor
	// count there).
	RingLength int           `json:"ring_length"`
	LowerBound int           `json:"lower_bound"` // guaranteed minimum (dⁿ − nf style), 0 if none
	Rounds     int           `json:"rounds"`      // broadcast rounds / eccentricity, where meaningful
	Survivors  int           `json:"survivors"`   // surviving component size, where meaningful
	Dilation   int           `json:"dilation"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// Result is one embedded ring with its statistics.  In batch responses a
// failed request carries Err and a nil Ring.
type Result struct {
	Ring  []int
	Stats Stats
	Err   error
}

// EmbedRing serves one request: resolve the network, consult the cache,
// collapse onto an identical in-flight computation if one exists, or run
// the topology's embedding.  Cancelling ctx abandons the wait (the
// underlying computation, if this call started it, still completes and
// populates the cache for later requests).
func (e *Engine) EmbedRing(ctx context.Context, req Request) (*Result, error) {
	net, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	key := net.Name() + "|" + req.Faults.Key()

	e.mu.Lock()
	if ent, ok := e.cache.get(key); ok {
		e.mu.Unlock()
		e.hits.Inc()
		return e.result(net, ent.ring, ent.info, true, start), nil
	}
	if fl, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err != nil {
				// The collapsed computation failed: account the waiter
				// as a miss so Hits+Misses still equals served requests.
				e.misses.Inc()
				return nil, fl.err
			}
			e.hits.Inc()
			return e.result(net, fl.ring, fl.info, true, start), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	e.inflight[key] = fl
	e.mu.Unlock()

	ring, info, err := net.EmbedRing(req.Faults)
	fl.err = err
	if err == nil {
		fl.ring, fl.info = ring, *info
	}
	close(fl.done)

	e.mu.Lock()
	delete(e.inflight, key)
	evicted := err == nil && e.cache.add(key, ring, *info)
	e.mu.Unlock()
	e.misses.Inc()
	if evicted {
		e.evicted.Inc()
	}

	if err != nil {
		return nil, err
	}
	return e.result(net, fl.ring, fl.info, false, start), nil
}

// EmbedBatch serves the requests across the worker pool, returning one
// Result per request in the same order.  Requests repeating a (topology,
// fault set) pair are served from cache or collapsed onto the in-flight
// computation and marked CacheHit.  Cancellation propagates to every
// pending request: once ctx is done, queued requests are not dispatched
// at all and workers stop picking up new work — both complete their
// results with Err = ctx.Err() instead of running to completion.
func (e *Engine) EmbedBatch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					results[i] = Result{Err: err}
					continue
				}
				res, err := e.EmbedRing(ctx, reqs[i])
				if err != nil {
					results[i] = Result{Err: err}
					continue
				}
				results[i] = *res
			}
		}()
	}
dispatch:
	for i := range reqs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				results[j] = Result{Err: ctx.Err()}
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results
}

// CacheStats reports cumulative cache behavior.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Evicted  int64 `json:"evicted"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
}

// CacheStats reads the engine's cache counters from the registry.
func (e *Engine) CacheStats() CacheStats {
	s := CacheStats{Hits: e.hits.Value(), Misses: e.misses.Value(), Evicted: e.evicted.Value()}
	e.mu.Lock()
	s.Entries = e.cache.len()
	e.mu.Unlock()
	if e.cache != nil {
		s.Capacity = e.cache.capacity
	}
	return s
}

// RepairKind classifies how one session fault event was served, for the
// engine's session-aware statistics.
type RepairKind int

const (
	// RepairLocal: the fault batch was absorbed by a local ring patch.
	RepairLocal RepairKind = iota
	// RepairReembed: local repair declined (or was out of tolerance) and
	// the session fell back to a full re-embed.
	RepairReembed
	// RepairNoop: the faults did not touch the session's ring.
	RepairNoop
	// RepairRejected: neither repair nor re-embed could absorb the
	// faults; the session kept its previous state.
	RepairRejected
	// RepairHealLocal: a heal batch (shrinking fault set) was absorbed
	// by a local un-patch — the ring grew back without a re-embed.
	RepairHealLocal
	// RepairHealReembed: the local un-patch declined and the session
	// re-embedded around the reduced fault set.
	RepairHealReembed
	// RepairSplice: the structural tier declined the fault batch but the
	// generic splice tier absorbed it by local bypass surgery — the
	// middle rung of the repair ladder, still no re-embed.
	RepairSplice
	// RepairSpliceHeal: the heal-direction analogue — the splice tier
	// re-inserted the healed components after the structural tier
	// declined.
	RepairSpliceHeal

	numRepairKinds
)

// String returns the tier label used in metrics and chaos reports.
func (k RepairKind) String() string {
	switch k {
	case RepairLocal:
		return "local"
	case RepairReembed:
		return "reembed"
	case RepairNoop:
		return "noop"
	case RepairRejected:
		return "rejected"
	case RepairHealLocal:
		return "heal_local"
	case RepairHealReembed:
		return "heal_reembed"
	case RepairSplice:
		return "splice"
	case RepairSpliceHeal:
		return "splice_heal"
	}
	return "unknown"
}

// SessionStats is the JSON shape of the sessions section of /v1/stats:
// fault-event outcomes across every session feeding this engine (how
// often incremental repair beat the full re-embed path, in both
// lifecycle directions), read from the session_repair_total and
// fleet_replica_*_total registry counters.
type SessionStats struct {
	LocalRepairs int64 `json:"local_repairs"`
	Reembeds     int64 `json:"reembeds"`
	Noops        int64 `json:"noops"`
	Rejected     int64 `json:"rejected"`
	LocalHeals   int64 `json:"local_heals"`
	HealReembeds int64 `json:"heal_reembeds"`
	// SpliceRepairs / SpliceHeals count the middle rung of the repair
	// ladder: batches the structural tier declined but the generic
	// splice tier absorbed by local bypass surgery, per direction.
	SpliceRepairs int64 `json:"splice_repairs"`
	SpliceHeals   int64 `json:"splice_heals"`
	// PatchHitRate is (LocalRepairs + SpliceRepairs) / (LocalRepairs +
	// SpliceRepairs + Reembeds): the fraction of ring-changing fault
	// events served without a full re-embed, by either local tier.
	PatchHitRate float64 `json:"patch_hit_rate"`
	// UnpatchHitRate is the heal-direction analogue, (LocalHeals +
	// SpliceHeals) / (LocalHeals + SpliceHeals + HealReembeds).
	UnpatchHitRate float64 `json:"unpatch_hit_rate"`
	// ReplicaAppends / ReplicaErrors count journal events shipped to
	// this shard's replica by the fleet's replicated store, and the
	// appends that failed (the shard degrades to local-only journaling
	// for those events: they survive a shard restart but not a shard
	// loss).  Zero on unreplicated processes.
	ReplicaAppends int64 `json:"replica_appends,omitempty"`
	ReplicaErrors  int64 `json:"replica_errors,omitempty"`
	// SpliceHitRate is (SpliceRepairs + SpliceHeals) / (SpliceRepairs +
	// SpliceHeals + Reembeds + HealReembeds): the fraction of
	// ring-changing events beyond the structural tier that the splice
	// tier caught before the re-embed cliff.  The denominator counts
	// every re-embed this engine saw — including over-tolerance batches
	// never offered to a patcher and sessions on topologies with no
	// structural tier — so a low rate is a lead, not proof, of the
	// chain degenerating to re-embed-only; the authoritative gate is a
	// controlled stream (chaos -min-splice, as the nightly soak runs).
	SpliceHitRate float64 `json:"splice_hit_rate"`
}

// RecordRepair accounts one session fault event and its end-to-end
// latency in the per-tier session_repair_total counter and
// session_repair_ns histogram, which feed both /v1/stats and /metrics.
// The session subsystem calls it for every absorbed fault batch.
//
//ringlint:noalloc
func (e *Engine) RecordRepair(kind RepairKind, elapsed time.Duration) {
	if kind >= 0 && kind < numRepairKinds {
		e.repairNs[kind].Observe(int64(elapsed))
		e.repairTotal[kind].Inc()
	}
}

// RecordJournalError accounts one failed local journal append.  The
// session keeps serving from memory (the in-memory state machine is
// authoritative for a live session), but the lost durability must be
// visible: the counter feeds /metrics so operators can see a session
// silently degrading before a restart loses its tail.
func (e *Engine) RecordJournalError() {
	e.journalErrs.Inc()
}

// RecordReplication accounts one replica journal append by the fleet's
// replicated store, so /v1/stats surfaces replication health (appends
// vs errors) next to the repair counters.
//
//ringlint:noalloc
func (e *Engine) RecordReplication(ok bool) {
	e.replicaAppends.Inc()
	if !ok {
		e.replicaErrors.Inc()
	}
}

// EngineStats is the observability snapshot served by the stats
// endpoint: cache counters (flattened), the cache hit rate, latency
// percentiles over every served request, and the session subsystem's
// repair-vs-re-embed counters.
type EngineStats struct {
	CacheStats
	Requests       int64        `json:"requests"`
	HitRate        float64      `json:"hit_rate"`
	LatencyP50Ns   int64        `json:"latency_p50_ns"`
	LatencyP99Ns   int64        `json:"latency_p99_ns"`
	LatencyP999Ns  int64        `json:"latency_p999_ns"`
	LatencySamples int64        `json:"latency_samples"`
	Sessions       SessionStats `json:"sessions"`
}

// Stats returns a snapshot of the engine's cache and latency behavior.
// Percentiles come from the engine_request_ns histogram, which covers
// every successfully served request since process start (the former
// bounded reservoir overweighted recent traffic) — cache hits
// included, failed embeddings excluded (they count in Requests via
// Misses but contribute no latency sample, so LatencySamples can trail
// Requests).
func (e *Engine) Stats() EngineStats {
	total := func(kind RepairKind) int64 { return e.repairTotal[kind].Value() }
	s := EngineStats{CacheStats: e.CacheStats(), Sessions: SessionStats{
		LocalRepairs:   total(RepairLocal),
		Reembeds:       total(RepairReembed),
		Noops:          total(RepairNoop),
		Rejected:       total(RepairRejected),
		LocalHeals:     total(RepairHealLocal),
		HealReembeds:   total(RepairHealReembed),
		SpliceRepairs:  total(RepairSplice),
		SpliceHeals:    total(RepairSpliceHeal),
		ReplicaAppends: e.replicaAppends.Value(),
		ReplicaErrors:  e.replicaErrors.Value(),
	}}
	if ringChanging := s.Sessions.LocalRepairs + s.Sessions.SpliceRepairs + s.Sessions.Reembeds; ringChanging > 0 {
		s.Sessions.PatchHitRate = float64(s.Sessions.LocalRepairs+s.Sessions.SpliceRepairs) / float64(ringChanging)
	}
	if healing := s.Sessions.LocalHeals + s.Sessions.SpliceHeals + s.Sessions.HealReembeds; healing > 0 {
		s.Sessions.UnpatchHitRate = float64(s.Sessions.LocalHeals+s.Sessions.SpliceHeals) / float64(healing)
	}
	if spliceable := s.Sessions.SpliceRepairs + s.Sessions.SpliceHeals +
		s.Sessions.Reembeds + s.Sessions.HealReembeds; spliceable > 0 {
		s.Sessions.SpliceHitRate = float64(s.Sessions.SpliceRepairs+s.Sessions.SpliceHeals) / float64(spliceable)
	}

	s.Requests = s.Hits + s.Misses
	if s.Requests > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Requests)
	}
	lat := e.latHist.Snapshot()
	s.LatencySamples = lat.Count
	if lat.Count > 0 {
		s.LatencyP50Ns = lat.Quantile(0.50)
		s.LatencyP99Ns = lat.Quantile(0.99)
		s.LatencyP999Ns = lat.Quantile(0.999)
	}
	return s
}

func (e *Engine) resolve(req Request) (topology.RingEmbedder, error) {
	net := req.Network
	if net == nil {
		if req.Spec == "" {
			return nil, fmt.Errorf("engine: request names no network (set Network or Spec)")
		}
		var err error
		if net, err = topology.FromSpec(req.Spec); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// result assembles a Result, copying the ring so cached slices cannot be
// mutated by callers, and feeds the latency histogram.
func (e *Engine) result(net topology.Network, ring []int, info topologyInfo, hit bool, start time.Time) *Result {
	elapsed := time.Since(start)
	e.latHist.Observe(int64(elapsed))
	return &Result{
		Ring: append([]int(nil), ring...),
		Stats: Stats{
			Topology:   net.Name(),
			CacheHit:   hit,
			RingLength: info.RingLength,
			LowerBound: info.LowerBound,
			Rounds:     info.Rounds,
			Survivors:  info.Survivors,
			Dilation:   info.Dilation,
			Elapsed:    elapsed,
		},
	}
}
