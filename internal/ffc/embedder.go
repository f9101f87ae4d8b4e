package ffc

import (
	"errors"
	"fmt"
	"sort"

	"debruijnring/internal/debruijn"
	"debruijnring/internal/dense"
)

// Embedder runs the FFC algorithm on one graph with reusable dense
// scratch: all per-run bookkeeping (visited stamps, distances, component
// ids, successor overrides) lives in flat epoch-stamped arrays sized by
// g.Size, so repeated embeddings allocate only their Result.  The
// necklace representative of every node is precomputed once, turning the
// alive-necklace test from an O(n) rotation scan into one array load.
//
// An Embedder is NOT safe for concurrent use; give each goroutine its
// own (topology.DeBruijn keeps a sync.Pool of them).  The one-shot Embed
// function remains the convenience front-end.
type Embedder struct {
	g    *debruijn.Graph
	reps []int32 // necklace representative per node

	faultRep  dense.Set  // faulty necklace representatives
	comp      dense.Ints // component id per node
	compSizes []int32
	compMins  []int32
	stack     []int32
	dist      dense.Ints // broadcast distance per node
	order     []int32    // BFS visit order (level order)
	earliest  dense.Ints // necklace rep → earliest-informed node Y
	repList   []int32    // surviving necklace reps in ascending order
	ov        dense.Ints // Step-3 successor overrides, node → node
	stars     []starEdge
	members   []int
}

// starEdge is one tree edge flattened for Step-2 grouping by label.
type starEdge struct{ w, child, parent int32 }

// NewEmbedder returns an Embedder for g.  Construction costs one O(dⁿ)
// pass to tabulate necklace representatives; everything else is lazily
// sized on first use.
func NewEmbedder(g *debruijn.Graph) *Embedder {
	return &Embedder{g: g, reps: necklaceReps(g)}
}

// necklaceReps tabulates NecklaceRep for every node in O(dⁿ) total: an
// ascending scan meets each necklace first at its minimal member, which
// is the representative of the whole rotation orbit.
func necklaceReps(g *debruijn.Graph) []int32 {
	reps := make([]int32, g.Size)
	for i := range reps {
		reps[i] = -1
	}
	for x := 0; x < g.Size; x++ {
		if reps[x] >= 0 {
			continue
		}
		y := x
		for {
			reps[y] = int32(x)
			y = g.RotL(y)
			if y == x {
				break
			}
		}
	}
	return reps
}

// Rep returns the necklace representative of x from the precomputed
// table.
func (e *Embedder) Rep(x int) int { return int(e.reps[x]) }

// Embed runs the FFC algorithm for the given faulty nodes, equivalent to
// the package-level Embed but reusing the receiver's scratch arrays.
func (e *Embedder) Embed(faults []int) (*Result, error) {
	g := e.g
	d := g.D
	pivot := g.Pow(g.N - 1) // leading-digit stride for predecessor arithmetic

	// Step 0: mark faulty necklaces.
	e.faultRep.Reset(g.Size)
	res := &Result{FaultyNecklaces: make(map[int]bool, len(faults))}
	for _, f := range faults {
		if f < 0 || f >= g.Size {
			panic(fmt.Sprintf("ffc: fault %d out of range", f))
		}
		rep := int(e.reps[f])
		if e.faultRep.Add(rep) {
			res.FaultyNecklaces[rep] = true
			res.FaultyNodeCount += g.Period(rep)
		}
	}
	alive := func(x int) bool { return !e.faultRep.Has(int(e.reps[x])) }

	// Largest surviving component (both edge directions; weak = strong
	// connectivity because whole necklaces are removed).
	e.comp.Reset(g.Size)
	e.compSizes = e.compSizes[:0]
	e.compMins = e.compMins[:0]
	for x := 0; x < g.Size; x++ {
		if !alive(x) || e.comp.Has(x) {
			continue
		}
		id := int32(len(e.compSizes))
		e.compSizes = append(e.compSizes, 0)
		e.compMins = append(e.compMins, int32(x))
		e.stack = append(e.stack[:0], int32(x))
		e.comp.Set(x, id)
		for len(e.stack) > 0 {
			v := int(e.stack[len(e.stack)-1])
			e.stack = e.stack[:len(e.stack)-1]
			e.compSizes[id]++
			base := g.Suffix(v) * d
			pre := v / d
			for a := 0; a < d; a++ {
				if w := base + a; alive(w) && !e.comp.Has(w) {
					e.comp.Set(w, id)
					e.stack = append(e.stack, int32(w))
				}
			}
			for a := 0; a < d; a++ {
				if w := a*pivot + pre; alive(w) && !e.comp.Has(w) {
					e.comp.Set(w, id)
					e.stack = append(e.stack, int32(w))
				}
			}
		}
	}
	if len(e.compSizes) == 0 {
		return nil, errors.New("ffc: every necklace is faulty; no component survives")
	}
	best := 0
	for id := 1; id < len(e.compSizes); id++ {
		if e.compSizes[id] > e.compSizes[best] {
			best = id
		}
	}
	bestID := int32(best)
	root := int(e.compMins[best])
	want := int(e.compSizes[best])
	res.Root = root
	res.BStarSize = want

	// Step 1.1: broadcast from R.  Level-synchronous BFS along directed
	// edges within B*; the visit order doubles as the node list for the
	// passes below.  The eccentricity is the depth of the last non-empty
	// level.
	res.Eccentricity = e.broadcast(root, bestID)

	// parentOf mirrors the Step 1.1 tie-break: the minimal predecessor
	// one level closer to R.  Computed on demand — only the
	// earliest-informed node of each necklace needs its parent.
	parentOf := func(x int) int {
		dx, ok := e.dist.Get(x)
		if !ok {
			return -1
		}
		pre := x / d
		for a := 0; a < d; a++ {
			p := a*pivot + pre
			if dp, ok := e.dist.Get(p); ok && dp == dx-1 {
				return p
			}
		}
		return -1
	}

	// Step 1.2: the necklace spanning tree T.  An ascending scan over B*
	// meets each necklace first at its representative, so repList comes
	// out sorted; the earliest-informed node Y minimizes (dist, node).
	if int(e.reps[root]) != root {
		return nil, fmt.Errorf("ffc: root %s is not a necklace representative", g.String(root))
	}
	e.earliest.Reset(g.Size)
	e.repList = e.repList[:0]
	for x := 0; x < g.Size; x++ {
		if id, ok := e.comp.Get(x); !ok || id != bestID {
			continue
		}
		rep := int(e.reps[x])
		y, ok := e.earliest.Get(rep)
		if !ok {
			e.earliest.Set(rep, int32(x))
			e.repList = append(e.repList, int32(rep))
			continue
		}
		if distOrZero(&e.dist, x) < distOrZero(&e.dist, int(y)) {
			e.earliest.Set(rep, int32(x))
		}
	}
	tree := make(map[int]TreeEdge, len(e.repList)-1)
	e.stars = e.stars[:0]
	for _, rep32 := range e.repList {
		rep := int(rep32)
		if rep == root {
			continue
		}
		y := int(e.earliest.At(rep))
		p := parentOf(y)
		if p < 0 {
			return nil, fmt.Errorf("ffc: earliest node %s of necklace [%s] has no broadcast parent", g.String(y), g.String(rep))
		}
		w := g.Prefix(y) // Y = wα ⇒ label is Y's leading n−1 digits
		parentRep := int(e.reps[p])
		if parentRep == rep {
			return nil, fmt.Errorf("ffc: necklace [%s] would parent itself", g.String(rep))
		}
		tree[rep] = TreeEdge{Parent: parentRep, W: w}
		e.stars = append(e.stars, starEdge{w: int32(w), child: rep32, parent: int32(parentRep)})
	}
	res.Tree = tree

	// Step 2: close each star T_w into a w-cycle ordered by necklace
	// representative; record the successor overrides densely for the walk
	// and as a map for the Result.
	sort.Slice(e.stars, func(i, j int) bool {
		if e.stars[i].w != e.stars[j].w {
			return e.stars[i].w < e.stars[j].w
		}
		return e.stars[i].child < e.stars[j].child
	})
	e.ov.Reset(g.Size)
	overrides := make(map[int]int, 2*len(e.stars))
	for i := 0; i < len(e.stars); {
		j := i
		for j < len(e.stars) && e.stars[j].w == e.stars[i].w {
			j++
		}
		w := int(e.stars[i].w)
		e.members = e.members[:0]
		for k := i; k < j; k++ {
			e.members = append(e.members, int(e.stars[k].child))
		}
		e.members = append(e.members, int(e.stars[i].parent))
		sort.Ints(e.members)
		k := len(e.members)
		for idx, rep := range e.members {
			next := e.members[(idx+1)%k]
			out := suffixNode(g, rep, w)
			in := prefixNode(g, next, w)
			if out < 0 || in < 0 {
				panic(fmt.Sprintf("ffc: star member [%s] lacks a w-node for w=%s (unreachable)",
					g.String(rep), fmt.Sprint(w)))
			}
			e.ov.Set(out, int32(in))
			overrides[out] = in
		}
		i = j
	}
	res.Overrides = overrides

	// Step 3: read off the cycle from the dense successor rule.
	cycle := make([]int, 0, want)
	x := root
	for {
		cycle = append(cycle, x)
		var next int
		if v, ok := e.ov.Get(x); ok {
			next = int(v)
		} else {
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
	res.Cycle = cycle
	return res, nil
}

// broadcast runs the Step 1.1 level-order BFS from root inside component
// bestID, filling e.dist and e.order, and returns the eccentricity (the
// depth of the deepest level).
func (e *Embedder) broadcast(root int, bestID int32) int {
	g := e.g
	d := g.D
	e.dist.Reset(g.Size)
	e.dist.Set(root, 0)
	e.order = append(e.order[:0], int32(root))

	ecc := 0
	for head, depth := 0, 0; head < len(e.order); depth++ {
		levelEnd := len(e.order)
		for ; head < levelEnd; head++ {
			v := int(e.order[head])
			base := g.Suffix(v) * d
			for a := 0; a < d; a++ {
				w := base + a
				if w == v {
					continue
				}
				if id, ok := e.comp.Get(w); !ok || id != bestID {
					continue
				}
				if !e.dist.Has(w) {
					e.dist.Set(w, int32(depth+1))
					e.order = append(e.order, int32(w))
				}
			}
		}
		if len(e.order) > levelEnd {
			ecc = depth + 1
		}
	}
	return ecc
}

// distOrZero mirrors the legacy map semantics dist[x] (0 when absent),
// relevant only in unreachable-node corner cases.
func distOrZero(m *dense.Ints, x int) int32 {
	v, _ := m.Get(x)
	return v
}
