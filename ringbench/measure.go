package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opResult is what a workload reports for one op.  Lat covers the
// timed call only; the output checks run after it.
type opResult struct {
	Lat time.Duration
	// Fail names why the op failed (transport, http, rejected,
	// bound_short, verify, hash, ...); "" when it succeeded.
	Fail string
	// Short marks a served ring below the reported lower bound by
	// exactly the processors its faults cut off: the documented d = 2
	// shortfall, counted but not failed.
	Short bool
	// Wrong describes an output that is incorrect rather than merely
	// failed (a ring that does not verify, a hash or fault-set
	// mismatch, a shortfall the cut-off count does not explain).
	// Any Wrong result makes the run report correct=false.
	Wrong string
}

// bench is one assembled workload.
type bench interface {
	// Callers is the number of closed-loop callers (at most nproc).
	Callers() int
	// Op runs the caller's next op; op is the trace id (0 untraced).
	Op(caller int, op uint64) opResult
	// Settled reports whether the caller may end a phase: its share of
	// the deterministic prefix (the ops ring_coverage averages over) is
	// complete and it stands at a boundary the end-of-phase readings
	// need (a whole promotion cycle on failover-restore).  It reads only
	// state that caller owns.
	Settled(caller int) bool
	// Coverage is the mean ring coverage over that prefix, and the
	// share of its rings that reached the reported lower bound.
	Coverage() (coverage, boundMet float64)
	// MarkPhase notes the counters a traced phase starts from.
	MarkPhase()
	// Final runs the end-of-run output checks.
	Final() error
	// Layers derives the per-layer metrics of a traced phase.
	Layers(r *layerInput) []metric
	// Tiers reports the repair-tier mix of the ops run so far.
	Tiers() []metric
	Close()
}

// layerInput is what a workload's per-layer analysis sees: the traced
// phase and its spans.
type layerInput struct {
	Traced *phase
	Spans  []span
	// FirstOp/LastOp bound the op ids of the traced phase.
	FirstOp, LastOp uint64
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	Ops    int
	Failed int
	// Short counts the ops served below the reported bound by exactly
	// the cut-off processors.
	Short int
	Wall  time.Duration
	Lat   []int64
	// Ends holds each op's completion time since the phase start, in
	// completion order; Lat is sorted after the run.
	Ends  []opEnd
	Fails map[string]int
	Wrong []string

	CPU, Steal         time.Duration
	Alloc, Mallocs, GC uint64
}

type procSample struct {
	cpu   time.Duration
	steal time.Duration
	ms    runtime.MemStats
}

// hostSteal reads the time the hypervisor ran other guests on this
// machine's CPUs (the steal column of /proc/stat); 0 where unavailable.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ = 100
}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal = hostSteal()
	runtime.ReadMemStats(&s.ms)
	return s
}

// opEnd is one op's completion offset and latency.
type opEnd struct{ At, Lat int64 }

// runPhase drives every caller in a closed loop until dur has passed,
// at least minOps ops were measured and every caller has settled.
func runPhase(b bench, tr *tracer, dur time.Duration, minOps int) *phase {
	var done atomic.Int64
	var mu sync.Mutex
	ph := &phase{Fails: map[string]int{}}
	before := sampleProc()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < b.Callers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]int64, 0, 4096)
			ends := make([]opEnd, 0, 4096)
			for time.Now().Before(deadline) || done.Load() < int64(minOps) || !b.Settled(c) {
				r := b.Op(c, tr.newOp())
				done.Add(1)
				lat = append(lat, int64(r.Lat))
				ends = append(ends, opEnd{int64(time.Since(start)), int64(r.Lat)})
				if r.Short {
					mu.Lock()
					ph.Short++
					mu.Unlock()
				}
				if r.Fail != "" || r.Wrong != "" {
					mu.Lock()
					ph.Failed++
					kind := r.Fail
					if kind == "" {
						kind = "wrong"
					}
					ph.Fails[kind]++
					if r.Wrong != "" && len(ph.Wrong) < 8 {
						ph.Wrong = append(ph.Wrong, r.Wrong)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			ph.Lat = append(ph.Lat, lat...)
			ph.Ends = append(ph.Ends, ends...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.Wall = time.Since(start)
	after := sampleProc()
	ph.Ops = len(ph.Lat)
	ph.CPU = after.cpu - before.cpu
	ph.Steal = after.steal - before.steal
	ph.Alloc = after.ms.TotalAlloc - before.ms.TotalAlloc
	ph.Mallocs = after.ms.Mallocs - before.ms.Mallocs
	ph.GC = uint64(after.ms.NumGC - before.ms.NumGC)
	sort.Slice(ph.Lat, func(i, j int) bool { return ph.Lat[i] < ph.Lat[j] })
	sort.Slice(ph.Ends, func(i, j int) bool { return ph.Ends[i].At < ph.Ends[j].At })
	return ph
}

// quantile reads the q-quantile of sorted nanosecond samples
// (nearest rank), in milliseconds.
func quantileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

func meanUs(sorted []int64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	var t int64
	for _, v := range sorted {
		t += v
	}
	return float64(t) / float64(len(sorted)) / 1e3
}

func (ph *phase) opsPerSec() float64 { return float64(ph.Ops) / ph.Wall.Seconds() }

// Windowed figures: the phase is cut into consecutive windows of at
// least minWindow holding about windowOps ops each, and a figure is the
// median over the windows of that figure per window.  A burst of
// interference on the host then moves a few windows, not the figure.
const (
	minWindow = time.Second
	windowOps = 200
)

// windows returns each whole window's length and its ops' latencies (a
// trailing partial window is dropped).
func (ph *phase) windows() (time.Duration, [][]int64) {
	w := minWindow
	if rate := ph.opsPerSec(); rate > 0 {
		w = max(w, time.Duration(windowOps/rate*float64(time.Second)))
	}
	out := make([][]int64, int(ph.Wall/w))
	for _, e := range ph.Ends {
		if i := int(e.At / int64(w)); i < len(out) {
			out[i] = append(out[i], e.Lat)
		}
	}
	return w, out
}

// windowRates returns the throughput of every window.
func (ph *phase) windowRates() []float64 {
	w, wins := ph.windows()
	rates := make([]float64, len(wins))
	for i, l := range wins {
		rates[i] = float64(len(l)) / w.Seconds()
	}
	return rates
}

// steadyOpsPerSec is the median windowed throughput; phases shorter
// than three windows fall back to the overall rate.
func (ph *phase) steadyOpsPerSec() float64 {
	rates := ph.windowRates()
	if len(rates) < 3 {
		return ph.opsPerSec()
	}
	return median(rates)
}

// steadyQuantileMs is the median over windows of each window's
// q-quantile latency, in milliseconds; phases shorter than three
// windows fall back to the quantile over every op.
func (ph *phase) steadyQuantileMs(q float64) float64 {
	_, wins := ph.windows()
	if len(wins) < 3 {
		return quantileMs(ph.Lat, q)
	}
	qs := make([]float64, 0, len(wins))
	for _, l := range wins {
		if len(l) > 0 {
			slices.Sort(l)
			qs = append(qs, quantileMs(l, q))
		}
	}
	return median(qs)
}

// processMetrics are the whole-process costs of a phase.
func (ph *phase) processMetrics() []metric {
	ops := float64(max(ph.Ops, 1))
	return []metric{
		{"process.cpu_us_per_op", "us", float64(ph.CPU.Microseconds()) / ops},
		{"process.cpu_util", "cores", ph.CPU.Seconds() / ph.Wall.Seconds()},
		{"process.alloc_bytes_per_op", "B", float64(ph.Alloc) / ops},
		{"process.mallocs_per_op", "count", float64(ph.Mallocs) / ops},
		{"process.gc_cycles_per_kop", "count", float64(ph.GC) * 1000 / ops},
	}
}

// hostMetrics describe the machine during the phase: the share of
// CPU time the hypervisor gave to other guests, and the spread of the
// windowed throughput.  They explain noisy runs; nothing is gated on
// them.
func (ph *phase) hostMetrics() []metric {
	rates := ph.windowRates()
	lo, hi := 0.0, 0.0
	if len(rates) > 0 {
		lo, hi = slices.Min(rates), slices.Max(rates)
	}
	return []metric{
		{"host.steal_pct", "%", 100 * ph.Steal.Seconds() / (ph.Wall.Seconds() * float64(runtime.NumCPU()))},
		{"host.window_ops_min", "1/s", lo},
		{"host.window_ops_max", "1/s", hi},
	}
}

// heapInuseMB forces a collection and reads the live heap.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// metric is one named, unit-carrying value.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
