package ffc

// This file pins the dense-kernel rewrite to the original map-based
// implementations: the pre-rewrite bookkeeping (map[int]int distances,
// map[int]bool visited sets) is preserved here verbatim as a test-only
// reference, and the property tests below assert that the epoch-stamped
// flat-array kernels produce byte-identical results across randomized
// (d, n, f, seed) grids.

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"debruijnring/internal/debruijn"
)

// embedLegacy is the pre-rewrite Embed: map-based broadcast, tree
// derivation, override table and successor walk.
func embedLegacy(g *debruijn.Graph, faults []int) (*Result, error) {
	faultyReps := FaultyNecklaces(g, faults)
	alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }

	comp, err := LargestComponent(g, alive)
	if err != nil {
		return nil, err
	}
	root := comp.MinNode

	res := &Result{
		Root:            root,
		BStarSize:       len(comp.Nodes),
		FaultyNecklaces: faultyReps,
	}
	for rep := range faultyReps {
		res.FaultyNodeCount += g.Period(rep)
	}

	dist, parent, ecc := broadcastTreeLegacy(g, root, comp.Member)
	res.Eccentricity = ecc

	tree, err := necklaceTreeLegacy(g, root, comp, dist, parent)
	if err != nil {
		return nil, err
	}
	res.Tree = tree

	res.Overrides = modifiedTreeOverridesLegacy(g, tree)

	cycle, err := walkLegacy(g, root, res.Overrides, len(comp.Nodes))
	if err != nil {
		return nil, err
	}
	res.Cycle = cycle
	return res, nil
}

func broadcastTreeLegacy(g *debruijn.Graph, root int, member func(int) bool) (dist map[int]int, parent map[int]int, ecc int) {
	dist = map[int]int{root: 0}
	parent = make(map[int]int)
	frontier := []int{root}
	var buf []int
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if w == v || !member(w) {
					continue
				}
				if _, ok := dist[w]; !ok {
					dist[w] = dist[v] + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	for x, dx := range dist {
		if dx > ecc {
			ecc = dx
		}
		if x == root {
			continue
		}
		best := -1
		buf = g.Predecessors(x, buf)
		for _, p := range buf {
			if dp, ok := dist[p]; ok && dp == dx-1 && (best == -1 || p < best) {
				best = p
			}
		}
		if best == -1 {
			panic("ffc: BFS node with no parent (unreachable)")
		}
		parent[x] = best
	}
	return dist, parent, ecc
}

func necklaceTreeLegacy(g *debruijn.Graph, root int, comp *Component, dist, parent map[int]int) (map[int]TreeEdge, error) {
	rootRep := g.NecklaceRep(root)
	if rootRep != root {
		return nil, fmt.Errorf("ffc: root %s is not a necklace representative", g.String(root))
	}
	earliest := make(map[int]int) // rep → Y
	for _, x := range comp.Nodes {
		rep := g.NecklaceRep(x)
		y, ok := earliest[rep]
		if !ok || dist[x] < dist[y] || (dist[x] == dist[y] && x < y) {
			earliest[rep] = x
		}
	}
	tree := make(map[int]TreeEdge, len(earliest)-1)
	for rep, y := range earliest {
		if rep == rootRep {
			continue
		}
		p, ok := parent[y]
		if !ok {
			return nil, fmt.Errorf("ffc: earliest node %s of necklace [%s] has no broadcast parent", g.String(y), g.String(rep))
		}
		w := g.Prefix(y)
		parentRep := g.NecklaceRep(p)
		if parentRep == rep {
			return nil, fmt.Errorf("ffc: necklace [%s] would parent itself", g.String(rep))
		}
		tree[rep] = TreeEdge{Parent: parentRep, W: w}
	}
	return tree, nil
}

func modifiedTreeOverridesLegacy(g *debruijn.Graph, tree map[int]TreeEdge) map[int]int {
	stars := make(map[int][]int)
	parents := make(map[int]int)
	for child, e := range tree {
		stars[e.W] = append(stars[e.W], child)
		parents[e.W] = e.Parent
	}
	overrides := make(map[int]int)
	for w, members := range stars {
		members = append(members, parents[w])
		sort.Ints(members)
		k := len(members)
		for i, rep := range members {
			next := members[(i+1)%k]
			out := suffixNode(g, rep, w)
			in := prefixNode(g, next, w)
			if out < 0 || in < 0 {
				panic("ffc: star member lacks a w-node (unreachable)")
			}
			overrides[out] = in
		}
	}
	return overrides
}

func walkLegacy(g *debruijn.Graph, root int, overrides map[int]int, want int) ([]int, error) {
	cycle := make([]int, 0, want)
	x := root
	for {
		cycle = append(cycle, x)
		next, ok := overrides[x]
		if !ok {
			next = g.RotL(x)
		}
		if next == root {
			break
		}
		if len(cycle) > want {
			return nil, fmt.Errorf("ffc: successor walk exceeded component size %d without closing", want)
		}
		x = next
	}
	if len(cycle) != want {
		return nil, fmt.Errorf("ffc: walk closed after %d nodes, want %d (cycle not Hamiltonian in B*)", len(cycle), want)
	}
	return cycle, nil
}

// oneTrialLegacy is the pre-rewrite trial kernel: map-based fault sets,
// component labeling and BFS bookkeeping, identical RNG consumption.
func oneTrialLegacy(g *debruijn.Graph, r, f int, rng *rand.Rand) (size, ecc, dead int) {
	faults := make(map[int]bool, f)
	for len(faults) < f {
		faults[rng.IntN(g.Size)] = true
	}
	faultyReps := make(map[int]bool, f)
	for x := range faults {
		faultyReps[g.NecklaceRep(x)] = true
	}
	alive := func(x int) bool { return !faultyReps[g.NecklaceRep(x)] }
	for rep := range faultyReps {
		dead += g.Period(rep)
	}

	compID := make([]int, g.Size)
	for i := range compID {
		compID[i] = -1
	}
	var compSizes []int
	var queue, buf []int
	for x := 0; x < g.Size; x++ {
		if !alive(x) || compID[x] != -1 {
			continue
		}
		id := len(compSizes)
		compSizes = append(compSizes, 0)
		compID[x] = id
		queue = append(queue[:0], x)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			compSizes[id]++
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if alive(w) && compID[w] == -1 {
					compID[w] = id
					queue = append(queue, w)
				}
			}
			buf = g.Predecessors(v, buf)
			for _, w := range buf {
				if alive(w) && compID[w] == -1 {
					compID[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	if len(compSizes) == 0 {
		return 0, 0, dead
	}

	src := r
	if !alive(src) {
		largest := 0
		for id, s := range compSizes {
			if s > compSizes[largest] {
				largest = id
			}
		}
		src = nearestInComponentLegacy(g, r, largest, compID)
		if src < 0 {
			return 0, 0, dead
		}
	}

	id := compID[src]
	dist := map[int]int{src: 0}
	frontier := []int{src}
	depth := 0
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if w == v || compID[w] != id {
					continue
				}
				if _, ok := dist[w]; !ok {
					dist[w] = dist[v] + 1
					next = append(next, w)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return compSizes[id], depth, dead
}

func nearestInComponentLegacy(g *debruijn.Graph, r, id int, compID []int) int {
	seen := map[int]bool{r: true}
	frontier := []int{r}
	var buf []int
	consider := func(w, best int) int {
		if compID[w] == id && (best == -1 || w < best) {
			return w
		}
		return best
	}
	if compID[r] == id {
		return r
	}
	for len(frontier) > 0 {
		var next []int
		best := -1
		for _, v := range frontier {
			buf = g.Successors(v, buf)
			for _, w := range buf {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					best = consider(w, best)
				}
			}
			buf = g.Predecessors(v, buf)
			for _, w := range buf {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					best = consider(w, best)
				}
			}
		}
		if best >= 0 {
			return best
		}
		frontier = next
	}
	return -1
}

// simulateLegacy drives the map-based trial kernel through the same
// deterministic per-trial stream scheme as SimulateWorkers, sequentially.
func simulateLegacy(d, n int, faultCounts []int, trials int, seed uint64) []SimRow {
	g := debruijn.New(d, n)
	r := g.Successor(g.Repeat(0), 1)
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	rows := make([]SimRow, 0, len(faultCounts))
	for _, f := range faultCounts {
		row := SimRow{F: f, MinSize: g.Size + 1, MinEcc: g.Size + 1, Bound: UpperBound(g, f)}
		var sumSize, sumEcc, sumDead int64
		for trial := 0; trial < trials; trial++ {
			pcg.Seed(seed, trialStream(f, trial))
			size, ecc, dead := oneTrialLegacy(g, r, f, rng)
			sumSize += int64(size)
			sumEcc += int64(ecc)
			sumDead += int64(dead)
			if size > row.MaxSize {
				row.MaxSize = size
			}
			if size < row.MinSize {
				row.MinSize = size
			}
			if ecc > row.MaxEcc {
				row.MaxEcc = ecc
			}
			if ecc < row.MinEcc {
				row.MinEcc = ecc
			}
		}
		row.AvgSize = float64(sumSize) / float64(trials)
		row.AvgEcc = float64(sumEcc) / float64(trials)
		row.AvgDeadNodes = float64(sumDead) / float64(trials)
		rows = append(rows, row)
	}
	return rows
}

// equalResults compares every exported field of two embeddings.
func equalResults(a, b *Result) bool {
	if a.Root != b.Root || a.BStarSize != b.BStarSize || a.Eccentricity != b.Eccentricity ||
		a.FaultyNodeCount != b.FaultyNodeCount {
		return false
	}
	if len(a.Cycle) != len(b.Cycle) {
		return false
	}
	for i := range a.Cycle {
		if a.Cycle[i] != b.Cycle[i] {
			return false
		}
	}
	if len(a.FaultyNecklaces) != len(b.FaultyNecklaces) {
		return false
	}
	for k, v := range a.FaultyNecklaces {
		if b.FaultyNecklaces[k] != v {
			return false
		}
	}
	if len(a.Tree) != len(b.Tree) {
		return false
	}
	for k, v := range a.Tree {
		if b.Tree[k] != v {
			return false
		}
	}
	if len(a.Overrides) != len(b.Overrides) {
		return false
	}
	for k, v := range a.Overrides {
		if b.Overrides[k] != v {
			return false
		}
	}
	return true
}

// TestDenseEmbedMatchesLegacy sweeps randomized (d, n, f, seed) grids and
// asserts the dense Embedder reproduces the legacy map implementation
// field for field, including the reuse of one Embedder across runs.
// B(2,14), whose BFS levels peak at 4095 nodes, pins a large-frontier
// broadcast as well; -short trims its seeds.
func TestDenseEmbedMatchesLegacy(t *testing.T) {
	grids := []struct{ d, n int }{{2, 6}, {2, 8}, {2, 14}, {3, 4}, {4, 3}, {5, 2}}
	for _, gr := range grids {
		g := debruijn.New(gr.d, gr.n)
		em := NewEmbedder(g) // reused across every case on this graph
		seeds := int64(6)
		if testing.Short() && g.Size > 4096 {
			seeds = 2
		}
		for f := 0; f <= 4; f++ {
			for seed := int64(0); seed < seeds; seed++ {
				rng := newTestRNG(seed*1000 + int64(f))
				faults := make([]int, f)
				for i := range faults {
					faults[i] = rng.IntN(g.Size)
				}
				want, wantErr := embedLegacy(g, faults)
				got, gotErr := em.Embed(faults)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("B(%d,%d) faults %v: legacy err %v, dense err %v",
						gr.d, gr.n, faults, wantErr, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Fatalf("B(%d,%d) faults %v: error mismatch %q vs %q",
							gr.d, gr.n, faults, wantErr, gotErr)
					}
					continue
				}
				if !equalResults(want, got) {
					t.Fatalf("B(%d,%d) faults %v: dense result diverges\nlegacy: %+v\ndense:  %+v",
						gr.d, gr.n, faults, want, got)
				}
			}
		}
	}
}

// TestDenseTrialMatchesLegacy asserts the dense trial kernel consumes the
// RNG identically to the map kernel and returns the same statistics.
func TestDenseTrialMatchesLegacy(t *testing.T) {
	grids := []struct{ d, n int }{{2, 8}, {3, 4}, {4, 5}}
	for _, gr := range grids {
		g := debruijn.New(gr.d, gr.n)
		r := g.Successor(g.Repeat(0), 1)
		sc := &simScratch{g: g, reps: necklaceReps(g)}
		for f := 0; f <= 12; f += 3 {
			for seed := uint64(0); seed < 5; seed++ {
				rngA := rand.New(rand.NewPCG(seed, 42))
				rngB := rand.New(rand.NewPCG(seed, 42))
				s1, e1, d1 := oneTrialLegacy(g, r, f, rngA)
				s2, e2, d2 := sc.oneTrial(r, f, rngB)
				if s1 != s2 || e1 != e2 || d1 != d2 {
					t.Fatalf("B(%d,%d) f=%d seed=%d: legacy (%d,%d,%d) vs dense (%d,%d,%d)",
						gr.d, gr.n, f, seed, s1, e1, d1, s2, e2, d2)
				}
				// Both kernels must leave the shared stream in the same
				// place: the next draws have to agree.
				if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
					t.Fatalf("B(%d,%d) f=%d seed=%d: RNG consumption diverged", gr.d, gr.n, f, seed)
				}
			}
		}
	}
}

// TestSimulateMatchesLegacyTables asserts the sharded dense Simulate
// reproduces the sequential map-based tables byte for byte.
func TestSimulateMatchesLegacyTables(t *testing.T) {
	counts := []int{0, 1, 3, 10}
	want := simulateLegacy(2, 8, counts, 40, 7)
	for _, workers := range []int{1, 4, 8} {
		got := SimulateWorkers(2, 8, counts, 40, 7, workers)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d row %d: legacy %+v vs dense %+v", workers, i, want[i], got[i])
			}
		}
	}
}

// TestSimulateWorkerInvariance pins the determinism contract: identical
// output for workers ∈ {1, 4, 8} at a fixed seed.
func TestSimulateWorkerInvariance(t *testing.T) {
	counts := []int{0, 2, 5, 20}
	base := SimulateWorkers(4, 5, counts, 30, 1991, 1)
	for _, workers := range []int{4, 8} {
		rows := SimulateWorkers(4, 5, counts, 30, 1991, workers)
		for i := range base {
			if rows[i] != base[i] {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, rows[i], base[i])
			}
		}
	}
}
