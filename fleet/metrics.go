package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"debruijnring/obs"
)

// initMetrics wires the router's own registry: the per-group request
// and promotion counters (resolved by newGroup) and the
// draining-response counter are bumped where they happen; a collector
// mirrors only the per-group down gauge at scrape time.  The fleet-wide
// view served at /metrics and /v1/metrics merges this registry with
// every active shard's snapshot — see FleetMetrics.
func (rt *Router) initMetrics() {
	rt.metrics = obs.NewRegistry()
	rt.metrics.SetHelp("fleet_router_requests_total", "Requests proxied to each shard group.")
	rt.metrics.SetHelp("fleet_router_promotions_total", "Replica promotions performed for each shard group.")
	rt.metrics.SetHelp("fleet_router_group_down", "Whether the group is down (1) or serving (0).")
	rt.metrics.SetHelp("fleet_router_draining_total", "Requests answered 503-draining during rebalances.")
	rt.drainCount = rt.metrics.Counter("fleet_router_draining_total")
	rt.metrics.AddCollector(func(r *obs.Registry) {
		view := rt.view.Load()
		if view == nil {
			return
		}
		for _, name := range view.order {
			g := view.groups[name]
			var dv int64
			if g.isDown() {
				dv = 1
			}
			r.Gauge("fleet_router_group_down", "group", name).Set(dv)
		}
	})
}

// Metrics returns the router's own registry (per-group routing
// counters).  The fleet-wide merged view is FleetMetrics.
func (rt *Router) Metrics() *obs.Registry { return rt.metrics }

// FleetMetrics builds the fleet-wide metrics snapshot: the router's own
// registry merged with every active shard's /v1/metrics snapshot.
// Counters and gauges sum across shards; histograms merge exactly
// (same bucket scheme), so a quantile read off the merged
// session_repair_ns is the true fleet-wide quantile, not an average of
// per-shard quantiles.  Groups that fail to answer are skipped and
// returned in partial — their series are simply absent from this
// scrape, mirroring serveList's partial-listing contract.
func (rt *Router) FleetMetrics() (obs.Snapshot, []string, error) {
	view := rt.view.Load()
	snaps := []obs.Snapshot{rt.metrics.Snapshot()}
	type result struct {
		name string
		snap obs.Snapshot
		err  error
	}
	results := make(chan result, len(view.order))
	n := 0
	for _, name := range view.order {
		g := view.groups[name]
		if g.isDown() {
			continue
		}
		n++
		go func(name, base string) {
			snap, err := rt.fetchMetrics(base)
			results <- result{name: name, snap: snap, err: err}
		}(name, g.activeURL())
	}
	var partial []string
	for i := 0; i < n; i++ {
		res := <-results
		if res.err != nil {
			partial = append(partial, res.name)
			continue
		}
		snaps = append(snaps, res.snap)
	}
	sort.Strings(partial)
	merged, err := obs.Merge(snaps...)
	if err != nil {
		// Only a bucket-scheme mismatch (mixed binary versions) lands
		// here; nothing sane to merge.
		return obs.Snapshot{}, partial, err
	}
	return merged, partial, nil
}

// fetchMetrics pulls one shard's JSON metrics snapshot.
func (rt *Router) fetchMetrics(base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := rt.fanout.Get(base + "/v1/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return snap, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, err
	}
	return snap, nil
}

// serveMetrics answers GET /metrics (Prometheus text) and
// GET /v1/metrics (JSON snapshot) with the fleet-wide merged view.
func (rt *Router) serveMetrics(w http.ResponseWriter, text bool) {
	snap, partial, err := rt.FleetMetrics()
	if err != nil {
		routerError(w, http.StatusInternalServerError, err)
		return
	}
	if len(partial) > 0 {
		w.Header().Set("X-Fleet-Partial", strings.Join(partial, ","))
	}
	if text {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
