package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, benches ...Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Report{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareFailsOnMissingBaselineEntry pins the gate's hygiene: a
// baseline entry the -bench pattern selects but the run did not produce
// fails the comparison by name instead of being skipped, while entries
// the pattern does not select stay out of the gate.
func TestCompareFailsOnMissingBaselineEntry(t *testing.T) {
	path := writeBaseline(t,
		Benchmark{Name: "Prop22", NsPerOp: 1000},
		Benchmark{Name: "Prop23", NsPerOp: 1000},
		Benchmark{Name: "Table21", NsPerOp: 1000},
	)
	run := Report{Bench: "Prop22|Prop23", Benchmarks: []Benchmark{{Name: "Prop22", NsPerOp: 1000}}}
	regressions, err := compareBaseline(path, run, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.HasPrefix(regressions[0], "Prop23:") {
		t.Fatalf("regressions = %q, want exactly one naming Prop23", regressions)
	}

	run.Benchmarks = append(run.Benchmarks, Benchmark{Name: "Prop23", NsPerOp: 1100})
	if regressions, err := compareBaseline(path, run, 0.25, 0.5); err != nil || len(regressions) != 0 {
		t.Fatalf("complete run: regressions %q, err %v; want none", regressions, err)
	}

	run.Benchmarks[1].NsPerOp = 2000
	if regressions, _ := compareBaseline(path, run, 0.25, 0.5); len(regressions) != 1 || !strings.HasPrefix(regressions[0], "Prop23:") {
		t.Fatalf("slow Prop23: regressions %q, want one naming Prop23", regressions)
	}
}
