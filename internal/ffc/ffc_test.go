package ffc

import (
	"math/rand/v2"
	"testing"

	"debruijnring/internal/debruijn"
)

func parse(t *testing.T, g *debruijn.Graph, s string) int {
	t.Helper()
	x, err := g.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return x
}

func parseAll(t *testing.T, g *debruijn.Graph, ss ...string) []int {
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = parse(t, g, s)
	}
	return out
}

// TestExample21 reproduces Example 2.1 exactly: nodes 020 and 112 fail in
// B(3,3); the FFC algorithm produces the 21-node fault-free cycle
// H = (000, 001, 011, 111, 110, 101, 012, 122, 222, 221, 212, 120, 201,
// 010, 102, 022, 220, 202, 021, 210, 100).
func TestExample21(t *testing.T) {
	g := debruijn.New(3, 3)
	faults := parseAll(t, g, "020", "112")
	res, err := Embed(g, faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.BStarSize != 21 {
		t.Errorf("|B*| = %d, want 21", res.BStarSize)
	}
	want := parseAll(t, g,
		"000", "001", "011", "111", "110", "101", "012", "122", "222", "221",
		"212", "120", "201", "010", "102", "022", "220", "202", "021", "210", "100")
	if len(res.Cycle) != len(want) {
		t.Fatalf("cycle length %d, want %d", len(res.Cycle), len(want))
	}
	for i := range want {
		if res.Cycle[i] != want[i] {
			got := make([]string, len(res.Cycle))
			for j, x := range res.Cycle {
				got[j] = g.String(x)
			}
			t.Fatalf("cycle diverges at %d: got %v", i, got)
		}
	}
	if !g.IsCycle(res.Cycle) {
		t.Error("H is not a valid cycle")
	}
}

// TestExample21Tree checks the spanning tree of Figure 2.4(a): each
// surviving necklace hangs from the expected parent under the expected
// label.
func TestExample21Tree(t *testing.T) {
	g := debruijn.New(3, 3)
	res, err := Embed(g, parseAll(t, g, "020", "112"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ parent, w string }{
		"001": {"000", "00"},
		"011": {"001", "01"},
		"012": {"001", "01"},
		"111": {"011", "11"},
		"122": {"012", "12"},
		"222": {"122", "22"},
		"021": {"001", "10"},
		"022": {"021", "02"},
	}
	if len(res.Tree) != len(want) {
		t.Fatalf("tree has %d edges, want %d", len(res.Tree), len(want))
	}
	wspace := debruijn.New(3, 2)
	for child, exp := range want {
		edge, ok := res.Tree[parse(t, g, child)]
		if !ok {
			t.Errorf("necklace [%s] missing from tree", child)
			continue
		}
		if g.String(edge.Parent) != exp.parent || wspace.String(edge.W) != exp.w {
			t.Errorf("[%s]: parent [%s] label %s, want [%s] label %s",
				child, g.String(edge.Parent), wspace.String(edge.W), exp.parent, exp.w)
		}
	}
}

// TestFigure23 spot-checks the necklace adjacency graph N* of
// B(3,3) − {N(020), N(112)} against Figure 2.3.
func TestFigure23(t *testing.T) {
	g := debruijn.New(3, 3)
	faultyReps := FaultyNecklaces(g, parseAll(t, g, "020", "112"))
	alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }
	comp, err := LargestComponent(g, alive)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Nodes) != 21 {
		t.Fatalf("component has %d nodes, want 21 (graph stays connected)", len(comp.Nodes))
	}
	adj := NecklaceAdjacency(g, comp)
	if len(adj) != 9 {
		t.Errorf("N* has %d necklace-nodes, want 9", len(adj))
	}
	wspace := debruijn.New(3, 2)
	has := func(from, to, label string) bool {
		for _, e := range adj[parse(t, g, from)] {
			if e.To == parse(t, g, to) && wspace.String(e.W) == label {
				return true
			}
		}
		return false
	}
	for _, e := range []struct{ from, to, label string }{
		{"000", "001", "00"},
		{"001", "000", "00"},
		{"001", "011", "01"},
		{"001", "011", "10"},
		{"011", "111", "11"},
		{"012", "122", "12"},
		{"122", "222", "22"},
		{"021", "022", "02"},
	} {
		if !has(e.from, e.to, e.label) {
			t.Errorf("N* missing %s-edge [%s] → [%s]", e.label, e.from, e.to)
		}
	}
	// Every N* edge has its antiparallel companion (the note after the
	// Definition in §2.2).
	for from, edges := range adj {
		for _, e := range edges {
			found := false
			for _, back := range adj[e.To] {
				if back.To == from && back.W == e.W {
					found = true
				}
			}
			if !found {
				t.Errorf("edge [%s]→[%s] (w=%s) lacks antiparallel companion",
					g.String(from), g.String(e.To), wspace.String(e.W))
			}
		}
	}
}

// TestExample22 checks the incoming/outgoing node structure of Example 2.2:
// necklace [0122] in B(3,4) with incident labels {012, 201, 220} has
// incoming nodes {0122, 2012, 2201}, outgoing nodes {2012, 2201, 1220} and
// splits into necklace paths (0122, 1220), (2201), (2012).
func TestExample22(t *testing.T) {
	g := debruijn.New(3, 4)
	rep := parse(t, g, "0122")
	w3 := debruijn.New(3, 3)
	labels := []int{}
	for _, s := range []string{"012", "201", "220"} {
		v, err := w3.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, v)
	}
	outgoing := map[int]bool{}
	incoming := map[int]bool{}
	for _, w := range labels {
		out := suffixNode(g, rep, w)
		in := prefixNode(g, rep, w)
		if out < 0 || in < 0 {
			t.Fatalf("label %s has no node on [0122]", w3.String(w))
		}
		outgoing[out] = true
		incoming[in] = true
	}
	wantOut := parseAll(t, g, "2012", "2201", "1220")
	wantIn := parseAll(t, g, "0122", "2012", "2201")
	for _, x := range wantOut {
		if !outgoing[x] {
			t.Errorf("outgoing nodes missing %s", g.String(x))
		}
	}
	for _, x := range wantIn {
		if !incoming[x] {
			t.Errorf("incoming nodes missing %s", g.String(x))
		}
	}
	// Lemma 2.1: every node lies on exactly one incoming→outgoing path.
	// Walk the necklace and extract the paths.
	var paths [][]int
	var current []int
	start := parse(t, g, "0122") // an incoming node
	x := start
	for {
		current = append(current, x)
		if outgoing[x] {
			paths = append(paths, current)
			current = nil
		}
		x = g.RotL(x)
		if x == start {
			break
		}
	}
	if len(current) != 0 {
		t.Error("necklace walk did not end on an outgoing node")
	}
	if len(paths) != 3 {
		t.Fatalf("necklace splits into %d paths, want 3", len(paths))
	}
	wantPaths := [][]int{
		parseAll(t, g, "0122", "1220"),
		parseAll(t, g, "2201"),
		parseAll(t, g, "2012"),
	}
	for i, wp := range wantPaths {
		if len(paths[i]) != len(wp) {
			t.Fatalf("path %d = %v, want %v", i, paths[i], wp)
		}
		for j := range wp {
			if paths[i][j] != wp[j] {
				t.Fatalf("path %d node %d mismatch", i, j)
			}
		}
	}
}

// TestProp22Guarantee: for f ≤ d−2 node faults the FFC cycle has length at
// least dⁿ − nf and the broadcast eccentricity is at most 2n.
func TestProp22Guarantee(t *testing.T) {
	cases := []struct {
		d, n   int
		faults [][]string
	}{
		{3, 3, [][]string{{"020"}, {"002"}, {"111"}}},
		{4, 3, [][]string{{"013"}, {"013", "113"}, {"000", "123"}, {"331", "132"}}},
		{5, 2, [][]string{{"04"}, {"04", "14"}, {"04", "14", "24"}, {"00", "11", "22"}}},
		{4, 4, [][]string{{"0003", "1113"}, {"0123", "3210"}}},
		{3, 5, [][]string{{"00120"}}},
	}
	for _, tc := range cases {
		g := debruijn.New(tc.d, tc.n)
		for _, fs := range tc.faults {
			if len(fs) > tc.d-2 {
				t.Fatalf("test case exceeds d−2 faults")
			}
			faults := parseAll(t, g, fs...)
			res, err := Embed(g, faults)
			if err != nil {
				t.Fatalf("B(%d,%d) faults %v: %v", tc.d, tc.n, fs, err)
			}
			if !g.IsCycle(res.Cycle) {
				t.Fatalf("B(%d,%d) faults %v: invalid cycle", tc.d, tc.n, fs)
			}
			bound := UpperBound(g, len(faults))
			if len(res.Cycle) < bound {
				t.Errorf("B(%d,%d) faults %v: cycle %d < bound %d", tc.d, tc.n, fs, len(res.Cycle), bound)
			}
			if res.Eccentricity > 2*tc.n {
				t.Errorf("B(%d,%d) faults %v: eccentricity %d > 2n", tc.d, tc.n, fs, res.Eccentricity)
			}
			for _, x := range res.Cycle {
				if res.FaultyNecklaces[g.NecklaceRep(x)] {
					t.Fatalf("cycle visits faulty necklace node %s", g.String(x))
				}
			}
		}
	}
}

// TestEmbedManyRandomFaults exercises the algorithm far beyond the d−2
// guarantee (the regime of the §2.5.2 simulations): the cycle must always
// be a valid Hamiltonian cycle of B*.
func TestEmbedManyRandomFaults(t *testing.T) {
	g := debruijn.New(2, 8)
	rng := newTestRNG(7)
	for trial := 0; trial < 60; trial++ {
		f := 1 + rng.IntN(12)
		faults := make([]int, f)
		for i := range faults {
			faults[i] = rng.IntN(g.Size)
		}
		res, err := Embed(g, faults)
		if err != nil {
			continue // all necklaces dead is acceptable at this fault rate
		}
		if !g.IsCycle(res.Cycle) {
			t.Fatalf("trial %d: invalid cycle", trial)
		}
		if len(res.Cycle) != res.BStarSize {
			t.Fatalf("trial %d: cycle %d ≠ |B*| %d", trial, len(res.Cycle), res.BStarSize)
		}
		seen := map[int]bool{}
		for _, x := range res.Cycle {
			if res.FaultyNecklaces[g.NecklaceRep(x)] {
				t.Fatalf("trial %d: faulty node on cycle", trial)
			}
			if seen[x] {
				t.Fatalf("trial %d: repeated node", trial)
			}
			seen[x] = true
		}
	}
}

// TestProp23BinarySingleFault: in B(2,n) with one faulty node the FFC cycle
// has length at least 2ⁿ − (n+1).
func TestProp23BinarySingleFault(t *testing.T) {
	for n := 4; n <= 10; n++ {
		g := debruijn.New(2, n)
		for fault := 0; fault < g.Size; fault++ {
			res, err := Embed(g, []int{fault})
			if err != nil {
				t.Fatalf("B(2,%d) fault %s: %v", n, g.String(fault), err)
			}
			if len(res.Cycle) < g.Size-(n+1) {
				t.Errorf("B(2,%d) fault %s: cycle %d < 2^n − (n+1) = %d",
					n, g.String(fault), len(res.Cycle), g.Size-(n+1))
			}
		}
	}
}

// TestWorstCaseOptimality certifies by exhaustive search that the fault
// family {α^{n−1}(d−1)} admits no fault-free cycle longer than dⁿ − nf
// (§2.5), and that the FFC algorithm achieves exactly that.
func TestWorstCaseOptimality(t *testing.T) {
	cases := []struct{ d, n, f int }{
		{4, 2, 1}, {4, 2, 2}, {2, 4, 0}, {3, 2, 1},
	}
	if !testing.Short() {
		// The full certification sweep is exponential-time exhaustive
		// search; run it only outside -short.  {5,2,2} is omitted: it
		// alone costs ~30s, and its shape is covered by {4,2,2} (two
		// faults) plus {5,2,3} (same graph, larger fault family).
		cases = append(cases, []struct{ d, n, f int }{{3, 3, 1}, {5, 2, 3}}...)
	}
	for _, tc := range cases {
		g := debruijn.New(tc.d, tc.n)
		faults := WorstCaseFaults(g, tc.f)
		fm := map[int]bool{}
		for _, x := range faults {
			fm[x] = true
		}
		longest := g.LongestCycleAvoiding(fm)
		bound := UpperBound(g, tc.f)
		if len(longest) != bound {
			t.Errorf("B(%d,%d) f=%d: longest fault-free cycle %d, want exactly %d",
				tc.d, tc.n, tc.f, len(longest), bound)
		}
		if tc.f > 0 {
			res, err := Embed(g, faults)
			if err != nil {
				t.Fatalf("B(%d,%d) f=%d: %v", tc.d, tc.n, tc.f, err)
			}
			if len(res.Cycle) != bound {
				t.Errorf("B(%d,%d) f=%d: FFC finds %d, optimum %d",
					tc.d, tc.n, tc.f, len(res.Cycle), bound)
			}
		}
	}
}

// TestFaultFreePath verifies the constructive routing of Proposition 2.2:
// length ≤ 2n, valid edges, and no faulty necklaces.
func TestFaultFreePath(t *testing.T) {
	for _, tc := range []struct{ d, n, f int }{{3, 3, 1}, {4, 3, 2}, {5, 2, 3}, {4, 4, 2}, {5, 3, 3}} {
		g := debruijn.New(tc.d, tc.n)
		rng := newTestRNG(int64(tc.d*100 + tc.n))
		for trial := 0; trial < 40; trial++ {
			faults := make([]int, tc.f)
			for i := range faults {
				faults[i] = rng.IntN(g.Size)
			}
			reps := FaultyNecklaces(g, faults)
			if len(reps) > tc.d-2 {
				continue // Proposition 2.2 premise is f ≤ d−2 necklaces
			}
			bad := func(v int) bool { return reps[g.NecklaceRep(v)] }
			x, y := rng.IntN(g.Size), rng.IntN(g.Size)
			if bad(x) || bad(y) {
				continue
			}
			path, err := FaultFreePath(g, x, y, reps)
			if err != nil {
				t.Fatalf("B(%d,%d) trial %d: %v", tc.d, tc.n, trial, err)
			}
			if len(path)-1 > 2*tc.n {
				t.Fatalf("path length %d > 2n = %d", len(path)-1, 2*tc.n)
			}
			if path[0] != x || path[len(path)-1] != y {
				t.Fatalf("path endpoints wrong")
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.IsEdge(path[i], path[i+1]) {
					t.Fatalf("step %d not an edge", i)
				}
			}
			for _, v := range path {
				if bad(v) {
					t.Fatalf("path visits faulty necklace node %s", g.String(v))
				}
			}
		}
	}
}

// TestPathFamiliesNecklaceDisjoint verifies the two lemmas inside the proof
// of Proposition 2.2: the d outward paths P_α are pairwise necklace-
// disjoint, as are the d−1 return paths Q_i.
func TestPathFamiliesNecklaceDisjoint(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{3, 3}, {4, 3}, {5, 2}, {4, 4}} {
		g := debruijn.New(tc.d, tc.n)
		rng := newTestRNG(int64(tc.d + tc.n))
		for trial := 0; trial < 25; trial++ {
			x := rng.IntN(g.Size)
			fam := OutwardFamily(g, x)
			for a := 0; a < len(fam); a++ {
				sa := NecklacesOnPath(g, fam[a])
				for b := a + 1; b < len(fam); b++ {
					for rep := range NecklacesOnPath(g, fam[b]) {
						if sa[rep] {
							t.Fatalf("B(%d,%d): P_%d and P_%d share necklace %s",
								tc.d, tc.n, a, b, g.String(rep))
						}
					}
				}
			}
			y := rng.IntN(g.Size)
			alpha := rng.IntN(g.D)
			ret := ReturnFamily(g, alpha, y)
			for a := 0; a < len(ret); a++ {
				sa := NecklacesOnPath(g, ret[a])
				for b := a + 1; b < len(ret); b++ {
					for rep := range NecklacesOnPath(g, ret[b]) {
						if sa[rep] {
							t.Fatalf("B(%d,%d): Q paths share necklace %s", tc.d, tc.n, g.String(rep))
						}
					}
				}
			}
		}
	}
}

// TestComparisonHypercubeParagraph reproduces the Chapter 2 comparison:
// with two faults in the 4096-node B(4,6), a fault-free cycle of length at
// least 4084 is found; B(4,6) has 16384 edges versus the hypercube's
// 24576.
func TestComparisonHypercubeParagraph(t *testing.T) {
	g := debruijn.New(4, 6)
	if g.NumEdges() != 16384 {
		t.Errorf("B(4,6) has %d edges, want 16384", g.NumEdges())
	}
	rng := newTestRNG(42)
	for trial := 0; trial < 10; trial++ {
		faults := []int{rng.IntN(g.Size), rng.IntN(g.Size)}
		res, err := Embed(g, faults)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cycle) < 4084 {
			t.Errorf("trial %d: cycle %d < 4084", trial, len(res.Cycle))
		}
		if !g.IsCycle(res.Cycle) {
			t.Fatal("invalid cycle")
		}
	}
}

func TestEmbedAllNecklacesFaulty(t *testing.T) {
	g := debruijn.New(2, 2)
	// Faults covering every necklace: 00, 01, 11 kill [00], [01], [11].
	if _, err := Embed(g, parseAll(t, g, "00", "01", "11")); err == nil {
		t.Error("expected error when every necklace is faulty")
	}
}

func TestEmbedNoFaults(t *testing.T) {
	// With no faults the FFC produces a Hamiltonian cycle of B(d,n) — a
	// De Bruijn sequence.
	for _, tc := range []struct{ d, n int }{{2, 4}, {2, 6}, {3, 3}, {4, 3}, {5, 2}} {
		g := debruijn.New(tc.d, tc.n)
		res, err := Embed(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsHamiltonian(res.Cycle) {
			t.Errorf("B(%d,%d): no-fault FFC cycle is not Hamiltonian (len %d)", tc.d, tc.n, len(res.Cycle))
		}
	}
}

func TestWorstCaseFaultsShape(t *testing.T) {
	g := debruijn.New(4, 3)
	faults := WorstCaseFaults(g, 2)
	want := parseAll(t, g, "003", "113")
	for i := range want {
		if faults[i] != want[i] {
			t.Errorf("fault %d = %s, want %s", i, g.String(faults[i]), g.String(want[i]))
		}
	}
	// Each fault sits on a distinct full-length necklace: removing them
	// costs exactly nf nodes.
	reps := FaultyNecklaces(g, faults)
	total := 0
	for rep := range reps {
		total += g.Period(rep)
	}
	if total != g.N*len(faults) {
		t.Errorf("worst-case faults remove %d nodes, want %d", total, g.N*len(faults))
	}
}

func BenchmarkEmbedB46TwoFaults(b *testing.B) {
	g := debruijn.New(4, 6)
	faults := []int{123, 3456}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Embed(g, faults); err != nil {
			b.Fatal(err)
		}
	}
}

func randomFaults(rng *rand.Rand, size, nf int) []int {
	faults := make([]int, 0, nf)
	for len(faults) < nf {
		faults = append(faults, rng.IntN(size))
	}
	return faults
}

// TestEmbedEccentricityMatchesLegacy pins the explicit level-depth
// eccentricity against the legacy map-based broadcast, which read the
// distance of the last visited node.
func TestEmbedEccentricityMatchesLegacy(t *testing.T) {
	grid := []struct{ d, n int }{{2, 8}, {2, 10}, {3, 5}, {4, 4}}
	for _, tc := range grid {
		g := debruijn.New(tc.d, tc.n)
		rng := rand.New(rand.NewPCG(uint64(tc.n), uint64(tc.d)))
		for trial := 0; trial < 4; trial++ {
			faults := randomFaults(rng, g.Size, trial)
			res, err := NewEmbedder(g).Embed(faults)
			if err != nil {
				continue
			}
			faultyReps := FaultyNecklaces(g, faults)
			alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }
			comp, err := LargestComponent(g, alive)
			if err != nil {
				t.Fatalf("B(%d,%d) faults=%v: %v", tc.d, tc.n, faults, err)
			}
			_, _, ecc := broadcastTreeLegacy(g, comp.MinNode, comp.Member)
			if res.Eccentricity != ecc {
				t.Errorf("B(%d,%d) faults=%v: Eccentricity=%d, legacy broadcast says %d",
					tc.d, tc.n, faults, res.Eccentricity, ecc)
			}
		}
	}
}
