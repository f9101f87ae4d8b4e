package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"debruijnring/topology"
)

// committedSeed is the seed the tier-honesty facts are pinned at.
const committedSeed = 1

func TestSessionTraceDeterministic(t *testing.T) {
	net, err := topology.FromSpec(streamSpec)
	if err != nil {
		t.Fatal(err)
	}
	cut := newCutter(net)
	draw := func(seed int64, index int) []step {
		tr := newSessionTrace(net, cut, seed, index)
		var out []step
		for i := 0; i < 400; i++ {
			s := tr.Next()
			out = append(out, s)
			// Reject every seventh batch, as the server may: the
			// generator must stay on the same path for the same outcomes.
			tr.Commit(s, i%7 != 0)
			live := tr.Live()
			switch {
			case len(live.Nodes) > 0 && len(live.Edges) > 0:
				t.Fatalf("step %d: processor and link faults stand together", i)
			case len(live.Nodes) > streamFaultCap || len(live.Edges) > streamLinkCap:
				t.Fatalf("step %d: %d processor and %d link faults exceed the caps", i, len(live.Nodes), len(live.Edges))
			case len(live.Edges) > 0 && cut.count(live) != 0:
				t.Fatalf("step %d: link faults %v cut processors off", i, live.Edges)
			}
		}
		return out
	}
	a, b := draw(committedSeed, 3), draw(committedSeed, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and session gave different traces")
	}
	if reflect.DeepEqual(a, draw(committedSeed+1, 3)) || reflect.DeepEqual(a, draw(committedSeed, 4)) {
		t.Fatal("different seeds or sessions gave the same trace")
	}
	links, heals := 0, 0
	for _, s := range a {
		if len(s.Req.EdgeFaults) > 0 && !s.Heal {
			links++
		}
		if s.Heal {
			heals++
		}
	}
	if links == 0 || heals == 0 {
		t.Fatalf("trace lacks link faults (%d) or heals (%d)", links, heals)
	}
}

func TestEmbedTraceDeterministic(t *testing.T) {
	net, err := topology.FromSpec(embedSpec)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64, caller int) []embedRequest {
		tr := newEmbedTrace(net, seed, caller)
		out := make([]embedRequest, 400)
		for i := range out {
			out[i] = tr.Next()
		}
		return out
	}
	a := draw(committedSeed, 0)
	if !reflect.DeepEqual(a, draw(committedSeed, 0)) {
		t.Fatal("same seed and caller gave different requests")
	}
	if reflect.DeepEqual(a, draw(committedSeed, 1)) {
		t.Fatal("callers share a request stream")
	}
	repeats := 0
	for _, r := range a {
		if r.Repeat {
			repeats++
		}
		if len(r.Labels) < 1 || len(r.Labels) > embedMaxFaults {
			t.Fatalf("request carries %d faults", len(r.Labels))
		}
	}
	if repeats < len(a)/8 || repeats > len(a)*3/8 {
		t.Fatalf("%d of %d requests repeat; want about one in %d", repeats, len(a), embedRepeatOdds)
	}
}

// TestCutOffExplainsNecklaceIsolation pins the d = 2 case the bound
// check tolerates: a fault on the necklace of 0…01 cuts off 0…0, and
// so does the loss of the link 0…0 → 0…01.
func TestCutOffExplainsNecklaceIsolation(t *testing.T) {
	net, err := topology.FromSpec(streamSpec)
	if err != nil {
		t.Fatal(err)
	}
	cut := newCutter(net)
	for _, c := range []struct {
		f    topology.FaultSet
		want int
	}{
		{topology.NodeFaults(2), 1},
		{topology.NodeFaults(1234), 0},
		{topology.NodeFaults(1, 4094), 2},
		{topology.EdgeFaults(topology.Edge{From: 0, To: 1}), 1},
		{topology.EdgeFaults(topology.Edge{From: 1, To: 2}), 0},
		{topology.FaultSet{}, 0},
	} {
		// Twice: the scratch must come back clean.
		for range 2 {
			if got := cut.count(c.f); got != c.want {
				t.Fatalf("count(%v) = %d, want %d", c.f, got, c.want)
			}
		}
	}
	bound := net.Nodes() - 12
	if ok, explained := cut.boundOK(topology.NodeFaults(2), bound-1, bound); ok || !explained {
		t.Fatalf("one-short ring around 0…010: ok=%v explained=%v", ok, explained)
	}
	if _, explained := cut.boundOK(topology.NodeFaults(1234), bound-1, bound); explained {
		t.Fatal("a shortfall with nothing cut off must not be explained")
	}
}

// runShort runs one workload briefly and returns its result and output.
func runShort(t *testing.T, name string, trace bool) (*result, string) {
	t.Helper()
	cfg := &config{
		workload:  name,
		seed:      committedSeed,
		seconds:   1,
		trace:     trace,
		workdir:   t.TempDir(),
		minOps:    40,
		warm:      100 * time.Millisecond,
		setupReps: 1,
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, cfg, res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: incorrect run:\n%s", name, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Fatalf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Fatalf("result line has %d keys, want 4", len(last))
	}
	if res.Attempted < cfg.minOps {
		t.Fatalf("attempted %d < %d", res.Attempted, cfg.minOps)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed at the committed seed:\n%s", name, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

// layerRuns names, per workload, the per-layer metrics whose layer
// runs there and must therefore be measured.
var layerRuns = map[string][]string{
	"local-stream": {
		"client.self_us", "client.retries_per_op", "router.self_us", "router.requests_per_op",
		"shard.span_us", "shard.overhead_us", "replica.append_us", "replica.appends_per_op",
		"session.self_us", "repair.ffc_us", "repair.splice_us", "repair.reembed_us",
		"repair.ffc_accept_ratio", "repair.splice_accept_ratio", "repair.reembed_share",
		"repair.declined_us", "journal.bytes_per_event", "trace.op_mean_us", "trace.residual_us",
	},
	"embed-cold":       {"engine.cache_hit_ratio", "engine.hit_us", "engine.miss_us"},
	"failover-restore": {"journal.bytes_per_event", "journal.load_us", "restore.replay_us", "restore.replayed_events"},
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkReported verifies that a run reports exactly the declared
// metrics, each with its declared unit.
func checkReported(t *testing.T, got []metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range got {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("metric %s (%s) is not declared with that unit in BENCHMARK.json", m.Name, m.Unit)
		}
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out := runShort(t, w.Name, false)
			checkReported(t, res.Metrics, endToEnd)
			for name := range endToEnd {
				if !strings.Contains(out, "  "+name+" ") {
					t.Errorf("end-to-end metric %s not printed", name)
				}
			}
			for _, name := range []string{"error_rate", "bound_short_share", "op_p99_ms", "op_samples"} {
				if !strings.Contains(out, "  "+name+" ") {
					t.Errorf("%s not printed", name)
				}
			}
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; gated metrics are never 0", m.Name, m.Value)
				}
			}

			res, out = runShort(t, w.Name, true)
			checkReported(t, res.Metrics, perLayer)
			if !strings.Contains(out, "tier mix: ") {
				t.Error("tier mix not printed")
			}
			want := append([]string{
				"process.cpu_us_per_op", "process.cpu_util", "process.alloc_bytes_per_op",
				"process.mallocs_per_op", "process.gc_cycles_per_kop", "trace.overhead_pct",
			}, layerRuns[w.Name]...)
			for _, name := range want {
				if !res.Measured[name] {
					t.Errorf("per-layer metric %s not measured", name)
				}
				if !strings.Contains(out, "  "+name+" ") {
					t.Errorf("per-layer metric %s not printed", name)
				}
			}
		})
	}
}

// TestTierHonesty pins, at the committed seed, that local-stream is
// served mostly by the local repair tiers (its "repair" numbers are not
// re-embed numbers) and that embed-cold touches no session, router or
// journal.
func TestTierHonesty(t *testing.T) {
	res, _ := runShort(t, "local-stream", true)
	get := func(r *result, name string) float64 {
		for _, m := range r.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s missing", name)
		return 0
	}
	local := get(res, "tiers.local_share") + get(res, "tiers.splice_share")
	if reembed := get(res, "tiers.reembed_share"); local < 0.5 || reembed > 0.1 {
		t.Fatalf("local-stream tier mix: local+splice %.3f, reembed %.3f", local, reembed)
	}

	dir := t.TempDir()
	cfg := &config{workload: "embed-cold", seed: committedSeed, seconds: 0.5, trace: true, workdir: dir, minOps: 20, setupReps: 1}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"router.requests_per_op", "shard.span_us", "replica.appends_per_op", "session.self_us", "journal.bytes_per_event", "journal.load_us", "tiers.local_share"} {
		if res.Measured[name] || get(res, name) != 0 {
			t.Errorf("embed-cold ran the %s layer", name)
		}
	}
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && !strings.HasPrefix(d.Name(), "spans-") {
			t.Errorf("embed-cold wrote %s", path)
		}
		return nil
	})
}
