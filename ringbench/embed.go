package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"debruijnring/engine"
	"debruijnring/topology"
)

// embedCoveragePrefix is the number of leading requests of every
// caller that ring_coverage averages over.
const embedCoveragePrefix = 256

// embedCacheSize holds every fault set a repeat can name (2 callers ×
// embedHistory recent sets, with room to spare), so a repeat is a hit
// by construction.
const embedCacheSize = 4 * embedHistory

// embedCaller is one closed-loop caller of embed-cold.
type embedCaller struct {
	trace  *embedTrace
	cut    *cutter
	n      int
	covSum float64
	met    int
}

// embedBench is the embed-cold workload: one-shot engine.EmbedRing on
// B(2,16) from 2 closed-loop callers.  No session, journal, HTTP or
// replication code runs.
type embedBench struct {
	net     topology.RingEmbedder
	eng     *engine.Engine
	tr      *tracer
	callers []*embedCaller

	repeatMiss atomic.Int64
	base       engine.CacheStats
}

func setupEmbed(cfg *config, _ string) (bench, error) {
	net, err := topology.FromSpec(embedSpec)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{CacheSize: embedCacheSize})
	// The fault-free ring readies the service (embedder pools, BFS
	// scratch); no measured request repeats its key.
	if _, err := eng.EmbedRing(context.Background(), engine.Request{Network: net}); err != nil {
		return nil, err
	}
	b := &embedBench{net: net, eng: eng, tr: cfg.tracer}
	for c := 0; c < cfg.callers; c++ {
		b.callers = append(b.callers, &embedCaller{trace: newEmbedTrace(net, cfg.seed, c), cut: newCutter(net)})
	}
	return b, nil
}

func (b *embedBench) Callers() int { return len(b.callers) }

func (b *embedBench) Op(c int, op uint64) opResult {
	cl := b.callers[c]
	req := cl.trace.Next()
	faults, err := topology.ParseFaults(b.net, req.Labels, nil)
	if err != nil {
		return opResult{Fail: "input", Wrong: err.Error()}
	}
	var res *engine.Result
	start := time.Now()
	if op == 0 {
		res, err = b.eng.EmbedRing(context.Background(), engine.Request{Network: b.net, Faults: faults})
	} else {
		t0 := b.tr.now()
		res, err = b.eng.EmbedRing(context.Background(), engine.Request{Network: b.net, Faults: faults})
		outcome := "miss"
		if err == nil && res.Stats.CacheHit {
			outcome = "hit"
		}
		b.tr.add(span{Op: op, Kind: spanEmbed, Start: t0, End: b.tr.now(), Outcome: outcome})
	}
	out := opResult{Lat: time.Since(start)}
	cl.n++
	if err != nil {
		out.Fail = "error"
		return out
	}
	if req.Repeat && !res.Stats.CacheHit {
		b.repeatMiss.Add(1)
	}
	if !topology.VerifyRing(b.net, res.Ring, faults) {
		out.Fail = "verify"
		out.Wrong = fmt.Sprintf("ring around %v fails VerifyRing", req.Labels)
		return out
	}
	ok, explained := cl.cut.boundOK(faults, len(res.Ring), res.Stats.LowerBound)
	switch {
	case !explained:
		out.Fail = "bound_short"
		out.Wrong = fmt.Sprintf("ring around %v: %d < bound %d, not explained by cut-off processors", req.Labels, len(res.Ring), res.Stats.LowerBound)
	case !ok:
		out.Short = true
	}
	if cl.n <= embedCoveragePrefix {
		cl.covSum += float64(len(res.Ring)) / float64(b.net.Nodes()-len(faults.Canonical().Nodes))
		if ok {
			cl.met++
		}
	}
	return out
}

func (b *embedBench) Settled(c int) bool { return b.callers[c].n >= embedCoveragePrefix }

func (b *embedBench) Coverage() (coverage, boundMet float64) {
	for _, cl := range b.callers {
		coverage += cl.covSum / embedCoveragePrefix
		boundMet += float64(cl.met) / embedCoveragePrefix
	}
	n := float64(len(b.callers))
	return coverage / n, boundMet / n
}

func (b *embedBench) MarkPhase() { b.base = b.eng.CacheStats() }

func (b *embedBench) Final() error {
	if n := b.repeatMiss.Load(); n > 0 {
		return fmt.Errorf("%d repeated fault sets missed the cache", n)
	}
	return nil
}

func (b *embedBench) Layers(in *layerInput) []metric {
	var hitNs, missNs int64
	var hits, misses int
	for _, s := range in.Spans {
		if s.Kind != spanEmbed || s.Op < in.FirstOp || s.Op > in.LastOp {
			continue
		}
		if s.Outcome == "hit" {
			hitNs += s.dur()
			hits++
		} else {
			missNs += s.dur()
			misses++
		}
	}
	cs := b.eng.CacheStats()
	dh, dm := float64(cs.Hits-b.base.Hits), float64(cs.Misses-b.base.Misses)
	return []metric{
		{"engine.cache_hit_ratio", "ratio", ratio(dh, dh+dm)},
		{"engine.hit_us", "us", ratio(float64(hitNs), float64(hits)) / 1e3},
		{"engine.miss_us", "us", ratio(float64(missNs), float64(misses)) / 1e3},
	}
}

// Tiers is empty: one-shot embeds run no repair ladder.  Every op is a
// cold FFC embed (a miss) or a cache hit, which the engine metrics
// report.
func (b *embedBench) Tiers() []metric { return nil }

func (b *embedBench) Close() {}
