package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload names one benchmark workload and how to assemble it.
type workload struct {
	Name string
	// Callers is the closed-loop caller count (at most nproc = 2).
	Callers int
	// SetupReps is how often set-up runs; setup_s is the median.
	SetupReps int
	Setup     func(cfg *config, dir string) (bench, error)
}

var workloads = []workload{
	{Name: "local-stream", Callers: 2, SetupReps: 3, Setup: setupLocal},
	{Name: "embed-cold", Callers: 2, SetupReps: 5, Setup: setupEmbed},
	{Name: "failover-restore", Callers: 1, SetupReps: 3, Setup: setupRestore},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string

	callers   int
	minOps    int
	warm      time.Duration
	setupReps int // 0 uses the workload's SetupReps
	tracer    *tracer
}

// perLayer lists every per-layer metric a traced run reports, in
// output order; BENCHMARK.json names the same set.
var perLayer = []metric{
	{Name: "client.self_us", Unit: "us"},
	{Name: "client.retries_per_op", Unit: "count"},
	{Name: "router.self_us", Unit: "us"},
	{Name: "router.requests_per_op", Unit: "count"},
	{Name: "shard.span_us", Unit: "us"},
	{Name: "shard.overhead_us", Unit: "us"},
	{Name: "replica.append_us", Unit: "us"},
	{Name: "replica.appends_per_op", Unit: "count"},
	{Name: "session.self_us", Unit: "us"},
	{Name: "repair.ffc_us", Unit: "us"},
	{Name: "repair.splice_us", Unit: "us"},
	{Name: "repair.reembed_us", Unit: "us"},
	{Name: "repair.ffc_accept_ratio", Unit: "ratio"},
	{Name: "repair.splice_accept_ratio", Unit: "ratio"},
	{Name: "repair.reembed_share", Unit: "ratio"},
	{Name: "repair.declined_us", Unit: "us"},
	{Name: "journal.bytes_per_event", Unit: "B"},
	{Name: "journal.load_us", Unit: "us"},
	{Name: "restore.replay_us", Unit: "us"},
	{Name: "restore.replayed_events", Unit: "count"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio"},
	{Name: "engine.hit_us", Unit: "us"},
	{Name: "engine.miss_us", Unit: "us"},
	{Name: "process.cpu_us_per_op", Unit: "us"},
	{Name: "process.cpu_util", Unit: "cores"},
	{Name: "process.alloc_bytes_per_op", Unit: "B"},
	{Name: "process.mallocs_per_op", Unit: "count"},
	{Name: "process.gc_cycles_per_kop", Unit: "count"},
	{Name: "tiers.local_share", Unit: "ratio"},
	{Name: "tiers.splice_share", Unit: "ratio"},
	{Name: "tiers.reembed_share", Unit: "ratio"},
	{Name: "tiers.noop_share", Unit: "ratio"},
	{Name: "tiers.rejected_share", Unit: "ratio"},
	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "trace.op_mean_us", Unit: "us"},
	{Name: "trace.residual_us", Unit: "us"},
}

// result is one run's outcome.
type result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int
	Failed    int
	Short     int
	Fails     map[string]int
	Problems  []string
	// Metrics holds the reported set (end-to-end, or per-layer for a
	// traced run); Extra carries the end-to-end figures a traced run
	// also prints, error_rate and bound_short_share.
	Metrics []metric
	Extra   []metric
	// Tiers is the repair-tier mix (empty where no ladder runs).
	Tiers  []metric
	Setups []float64
	// Measured lists the per-layer metrics whose layer ran.
	Measured map[string]bool
}

func run(cfg *config) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.callers = min(w.Callers, runtime.NumCPU())
	cfg.tracer = newTracer()
	runDir := filepath.Join(cfg.workdir, "tmp", fmt.Sprintf("%s-seed%d-pid%d", w.Name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	reps := w.SetupReps
	if cfg.setupReps > 0 {
		reps = cfg.setupReps
	}
	var b bench
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(runDir, fmt.Sprint(rep))
		start := time.Now()
		nb, err := w.Setup(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < reps-1 {
			nb.Close()
			os.RemoveAll(dir)
		} else {
			b = nb
		}
	}
	defer b.Close()

	res := &result{Workload: w.Name, Seed: cfg.seed, Fails: map[string]int{}, Setups: setups, Measured: map[string]bool{}}
	record := func(ph *phase) {
		res.Attempted += ph.Ops
		res.Failed += ph.Failed
		res.Short += ph.Short
		for k, n := range ph.Fails {
			res.Fails[k] += n
		}
		res.Problems = append(res.Problems, ph.Wrong...)
	}
	// Warm-up: connection pools, GC pacing, and the deterministic
	// prefix ring_coverage averages over.  Not measured.
	warm := runPhase(b, cfg.tracer, cfg.warm, 0)
	res.Problems = append(res.Problems, warm.Wrong...)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var e2e []metric
	if !cfg.trace {
		ph := runPhase(b, cfg.tracer, dur, cfg.minOps)
		record(ph)
		e2e = endToEndMetrics(ph, setups, b, heapInuseMB())
		res.Metrics = e2e
		res.Extra = append(res.Extra, tailMetrics(ph)...)
		res.Extra = append(res.Extra, ph.hostMetrics()...)
	} else {
		un := runPhase(b, cfg.tracer, dur/2, cfg.minOps/2)
		record(un)
		e2e = endToEndMetrics(un, setups, b, heapInuseMB())
		b.MarkPhase()
		first := cfg.tracer.ids.Load() + 1
		cfg.tracer.on.Store(true)
		tp := runPhase(b, cfg.tracer, dur/2, cfg.minOps/2)
		cfg.tracer.on.Store(false)
		record(tp)
		last := cfg.tracer.ids.Load()
		spans := cfg.tracer.snapshot()
		layer := b.Layers(&layerInput{Traced: tp, Spans: spans, FirstOp: first, LastOp: last})
		layer = append(layer, un.processMetrics()...)
		layer = append(layer, b.Tiers()...)
		layer = append(layer, metric{"trace.overhead_pct", "%", (ratio(un.opsPerSec(), tp.opsPerSec()) - 1) * 100})
		for _, m := range layer {
			res.Measured[m.Name] = true
		}
		res.Metrics = fill(perLayer, layer)
		res.Extra = append(res.Extra, e2e...)
		res.Extra = append(res.Extra, tailMetrics(un)...)
		res.Extra = append(res.Extra, metric{"traced_ops_per_s", "1/s", tp.opsPerSec()})
		if err := writeSpans(spanFileName(cfg.workdir, w.Name, cfg.seed), spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Extra = append(res.Extra,
		metric{"error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted))},
		metric{"bound_short_share", "ratio", ratio(float64(res.Short), float64(res.Attempted))})
	res.Tiers = b.Tiers()
	if err := b.Final(); err != nil {
		res.Problems = append(res.Problems, "final check: "+err.Error())
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func endToEndMetrics(ph *phase, setups []float64, b bench, heapMB float64) []metric {
	coverage, boundMet := b.Coverage()
	return []metric{
		{"setup_s", "s", median(setups)},
		{"ops_per_s", "1/s", ph.steadyOpsPerSec()},
		{"op_p50_ms", "ms", ph.steadyQuantileMs(0.50)},
		{"op_p90_ms", "ms", ph.steadyQuantileMs(0.90)},
		{"ring_coverage", "ratio", coverage},
		{"bound_met_ratio", "ratio", boundMet},
		{"heap_inuse_mb", "MB", heapMB},
	}
}

// tailMetrics are the latency figures printed beside the gated ones:
// p99 over every op and the sample count it rests on.  p99 is not
// gated: on
// failover-restore it is the costliest of 32 journals' restores, which
// varies from seed to seed by more than any usable bound.
func tailMetrics(ph *phase) []metric {
	return []metric{
		{"op_p99_ms", "ms", quantileMs(ph.Lat, 0.99)},
		{"op_samples", "count", float64(len(ph.Lat))},
	}
}

// fill orders got by the names of want; a metric whose layer did not
// run reports 0.
func fill(want, got []metric) []metric {
	out := make([]metric, len(want))
	for i, w := range want {
		out[i] = w
		for _, g := range got {
			if g.Name == w.Name {
				out[i].Value = g.Value
			}
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints the human-readable summary followed by the one-line
// JSON result (always the last line of standard output).
func report(out io.Writer, cfg *config, res *result) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "ringbench %s seed=%d seconds=%g %s\n", res.Workload, res.Seed, cfg.seconds, mode)
	fmt.Fprintf(out, "  setup runs (s): %s\n", floats(res.Setups))
	for _, m := range res.Metrics {
		note := ""
		if cfg.trace && !res.Measured[m.Name] {
			note = "  (layer does not run in this workload)"
		}
		fmt.Fprintf(out, "  %-28s %14.6f %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for _, m := range res.Extra {
		fmt.Fprintf(out, "  %-28s %14.6f %s\n", m.Name, m.Value, m.Unit)
	}
	kinds := make([]string, 0, len(res.Fails))
	for k := range res.Fails {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, res.Fails[k])
	}
	fmt.Fprintf(out, "  failed %d of %d ops [%s]\n", res.Failed, res.Attempted, strings.Join(parts, " "))
	if len(res.Tiers) == 0 {
		fmt.Fprintf(out, "  tier mix: no repair ladder runs (one-shot embeds; see engine.cache_hit_ratio)\n")
	} else {
		mix := make([]string, len(res.Tiers))
		for i, m := range res.Tiers {
			mix[i] = fmt.Sprintf("%s=%.4f", strings.TrimSuffix(strings.TrimPrefix(m.Name, "tiers."), "_share"), m.Value)
		}
		fmt.Fprintf(out, "  tier mix: %s\n", strings.Join(mix, " "))
	}
	for _, p := range res.Problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func main() {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: local-stream, embed-cold or failover-restore")
	flag.Int64Var(&cfg.seed, "seed", 1, "trace seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for journals and span files")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.minOps = 1000
	cfg.warm = time.Second
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err == nil {
		err = report(os.Stdout, cfg, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(1)
	}
}
