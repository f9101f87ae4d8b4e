package main

import (
	"math/rand"
	"sort"

	"debruijnring/session"
	"debruijnring/topology"
)

// Trace parameters shared by local-stream and failover-restore.
const (
	streamSpec     = "debruijn(2,12)"
	streamSessions = 32
	// streamFaultCap keeps live processor faults at n−1, inside the
	// f ≤ n gate of the session's local repair for B(2,12).
	streamFaultCap = 11
	// streamLinkCap bounds the live link faults of a link epoch.
	streamLinkCap = 1
	// linkEpochProb is the chance that a fault epoch is a link epoch;
	// link epochs are short, so about one fault in four is then a link
	// fault.
	linkEpochProb = 0.77
	healProb      = 0.5
)

// seedFor derives the RNG seed of one trace stream (a session or a
// caller) from the run seed, so every stream is independent of the
// others and of scheduling.
func seedFor(seed int64, stream, salt int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(salt)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86755B4C5
	x ^= x >> 29
	return int64(x &^ (1 << 63))
}

// step is one generated fault or heal batch.  Req holds the labels the
// program under test receives; Set is the same batch as node ids, used
// only by the benchmark's own checks.
type step struct {
	Heal bool
	Req  session.FaultsRequest
	Set  topology.FaultSet
}

// sessionTrace is the seeded fault/heal generator of one session.  It
// tracks the live fault set the session should hold: Commit applies a
// step once the server acknowledged it (a rejected batch leaves the
// set unchanged), so the next step depends only on the seed and the
// deterministic outcomes so far.
type sessionTrace struct {
	net   topology.Network
	rng   *rand.Rand
	succ  []int
	nodes []int
	edges []topology.Edge
	bad   []bool
	badE  map[topology.Edge]bool
	// links is set during a link epoch.
	links bool
	cut   *cutter
}

// newSessionTrace returns the generator of session index; cut may be
// shared by the traces one goroutine draws from.
func newSessionTrace(net topology.Network, cut *cutter, seed int64, index int) *sessionTrace {
	return &sessionTrace{
		net:  net,
		cut:  cut,
		rng:  rand.New(rand.NewSource(seedFor(seed, index, 1))),
		bad:  make([]bool, net.Nodes()),
		badE: make(map[topology.Edge]bool),
	}
}

// Live returns the fault set the session holds after every committed
// step.
func (t *sessionTrace) Live() topology.FaultSet {
	f := topology.FaultSet{
		Nodes: append([]int(nil), t.nodes...),
		Edges: append([]topology.Edge(nil), t.edges...),
	}
	return f.Canonical()
}

// Next proposes the session's next batch: a heal with probability
// healProb (always at the fault cap, never with nothing to heal),
// otherwise a new fault.  Faults come in epochs, each starting when the
// session is fault-free: a link epoch with probability linkEpochProb,
// else a processor epoch, so link and processor faults never stand
// together.  The program serves a mixed set best-effort only (its
// re-embed fails when the FFC ring around the processor faults crosses
// a faulty link).  A link epoch holds at most streamLinkCap links and
// never a link whose loss cuts a processor off: with d = 2 the
// Hamiltonian re-embed tolerates no link fault, so only the local tiers
// can serve a link set, and they did not always serve two.  Processor
// faults are drawn uniformly, the root-necklace ones that cut
// processors off included.
func (t *sessionTrace) Next() step {
	live := len(t.nodes) + len(t.edges)
	if live == 0 {
		t.links = t.rng.Float64() < linkEpochProb
	}
	limit := streamFaultCap
	if t.links {
		limit = streamLinkCap
	}
	coin := t.rng.Float64()
	if live > 0 && (live >= limit || coin < healProb) {
		i := t.rng.Intn(live)
		if i < len(t.nodes) {
			return t.nodeStep(true, t.nodes[i])
		}
		return t.edgeStep(true, t.edges[i-len(t.nodes)])
	}
	size := t.net.Nodes()
	if t.links {
		for {
			u := t.rng.Intn(size)
			t.succ = t.net.Successors(u, t.succ[:0])
			v := t.succ[t.rng.Intn(len(t.succ))]
			e := topology.Edge{From: u, To: v}
			if u == v || t.badE[e] {
				continue
			}
			t.edges = append(t.edges, e)
			cut := t.cut.count(topology.FaultSet{Edges: t.edges})
			t.edges = t.edges[:len(t.edges)-1]
			if cut == 0 {
				return t.edgeStep(false, e)
			}
		}
	}
	for {
		u := t.rng.Intn(size)
		if !t.bad[u] {
			return t.nodeStep(false, u)
		}
	}
}

func (t *sessionTrace) nodeStep(heal bool, v int) step {
	return step{
		Heal: heal,
		Req:  session.FaultsRequest{NodeFaults: []string{t.net.Label(v)}},
		Set:  topology.NodeFaults(v),
	}
}

func (t *sessionTrace) edgeStep(heal bool, e topology.Edge) step {
	return step{
		Heal: heal,
		Req: session.FaultsRequest{EdgeFaults: []session.EdgeJSON{
			{From: t.net.Label(e.From), To: t.net.Label(e.To)},
		}},
		Set: topology.EdgeFaults(e),
	}
}

// Commit applies an acknowledged step to the live set; a rejected
// batch (accepted false) leaves it unchanged.
func (t *sessionTrace) Commit(s step, accepted bool) {
	if !accepted {
		return
	}
	for _, v := range s.Set.Nodes {
		t.bad[v] = !s.Heal
		if s.Heal {
			t.nodes = removeInt(t.nodes, v)
		} else {
			t.nodes = append(t.nodes, v)
		}
	}
	for _, e := range s.Set.Edges {
		if s.Heal {
			delete(t.badE, e)
			t.edges = removeEdge(t.edges, e)
		} else {
			t.badE[e] = true
			t.edges = append(t.edges, e)
		}
	}
}

// rollback rebuilds the trace state for a batch that did not land.
func (t *sessionTrace) rollback(live topology.FaultSet) *sessionTrace {
	n := &sessionTrace{net: t.net, cut: t.cut, links: t.links, rng: t.rng, bad: make([]bool, len(t.bad)), badE: map[topology.Edge]bool{}}
	n.Commit(step{Set: live}, true)
	return n
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeEdge(s []topology.Edge, e topology.Edge) []topology.Edge {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Embed-cold parameters.
const (
	embedSpec      = "debruijn(2,16)"
	embedMaxFaults = 16
	// embedRepeatOdds: one request in embedRepeatOdds repeats one of the
	// caller's last embedHistory fault sets.
	embedRepeatOdds = 4
	embedHistory    = 64
)

// embedRequest is one generated one-shot request.  Labels is what the
// program receives; Repeat marks a request that repeats an earlier
// fault set of the same caller, so it must be a cache hit.
type embedRequest struct {
	Labels []string
	Repeat bool
}

// embedTrace is the seeded request generator of one embed-cold caller.
type embedTrace struct {
	net     topology.Network
	rng     *rand.Rand
	history [][]string
	next    int
}

func newEmbedTrace(net topology.Network, seed int64, caller int) *embedTrace {
	return &embedTrace{net: net, rng: rand.New(rand.NewSource(seedFor(seed, caller, 2)))}
}

// Next draws the caller's next request: a repeat of a recent fault set
// one time in embedRepeatOdds, otherwise 1–embedMaxFaults distinct
// random processors.
func (t *embedTrace) Next() embedRequest {
	if len(t.history) > 0 && t.rng.Intn(embedRepeatOdds) == 0 {
		return embedRequest{Labels: t.history[t.rng.Intn(len(t.history))], Repeat: true}
	}
	k := 1 + t.rng.Intn(embedMaxFaults)
	picked := make([]int, 0, k)
	for len(picked) < k {
		v := t.rng.Intn(t.net.Nodes())
		dup := false
		for _, x := range picked {
			dup = dup || x == v
		}
		if !dup {
			picked = append(picked, v)
		}
	}
	sort.Ints(picked)
	labels := make([]string, k)
	for i, v := range picked {
		labels[i] = t.net.Label(v)
	}
	if len(t.history) < embedHistory {
		t.history = append(t.history, labels)
	} else {
		t.history[t.next] = labels
		t.next = (t.next + 1) % embedHistory
	}
	return embedRequest{Labels: labels}
}

// cutter counts the healthy processors the FFC construction cannot
// keep on a ring for a fault set.  FFC removes every faulty processor's
// whole necklace; a ring then lies inside one strongly connected
// component of what survives (faulty links removed too), so every
// surviving processor outside the largest component is cut off.  For
// d = 2 one fault can do this (a fault on the necklace of 0…01 isolates
// 0…0, whose only other neighbours that necklace holds; faults around
// 0101…01 can isolate its 2-node necklace), which is why the paper
// states dⁿ − nf for f ≤ d−2 only.  The benchmark uses the count to
// tell that documented shortfall apart from a repair defect, and to
// keep link faults from cutting processors off.
//
// The network's shape is flattened once; a count reuses the scratch,
// so a cutter belongs to one goroutine.
type cutter struct {
	size int
	// rot is the left rotation of each label: necklaces are its orbits.
	rot []int32
	// out/in list the loop-free links of each processor, CSR style.
	outOff, out, inOff, in []int32

	gone, seen   []bool
	badOut       []bool // per out slot
	badIn        []bool // per in slot
	order, stack []int32
	next         []int32
}

func newCutter(net topology.Network) *cutter {
	size := net.Nodes()
	c := &cutter{
		size:   size,
		rot:    make([]int32, size),
		outOff: make([]int32, size+1),
		inOff:  make([]int32, size+1),
		gone:   make([]bool, size),
		seen:   make([]bool, size),
		next:   make([]int32, size),
	}
	var succ []int
	indeg := make([]int32, size)
	for u := 0; u < size; u++ {
		label := net.Label(u)
		r, err := net.Parse(label[1:] + label[:1])
		if err != nil {
			panic(err) // every rotation of a de Bruijn label is a label
		}
		c.rot[u] = int32(r)
		succ = net.Successors(u, succ[:0])
		for _, v := range succ {
			if v != u {
				c.out = append(c.out, int32(v))
				indeg[v]++
			}
		}
		c.outOff[u+1] = int32(len(c.out))
	}
	for v := 0; v < size; v++ {
		c.inOff[v+1] = c.inOff[v] + indeg[v]
	}
	c.in = make([]int32, len(c.out))
	fill := append([]int32(nil), c.inOff[:size]...)
	for u := 0; u < size; u++ {
		for _, v := range c.out[c.outOff[u]:c.outOff[u+1]] {
			c.in[fill[v]] = int32(u)
			fill[v]++
		}
	}
	c.badOut = make([]bool, len(c.out))
	c.badIn = make([]bool, len(c.in))
	return c
}

// markLink sets (or clears) the faulty flag of link e in both lists.
func (c *cutter) markLink(e topology.Edge, bad bool) {
	for i := c.outOff[e.From]; i < c.outOff[e.From+1]; i++ {
		if c.out[i] == int32(e.To) {
			c.badOut[i] = bad
		}
	}
	for i := c.inOff[e.To]; i < c.inOff[e.To+1]; i++ {
		if c.in[i] == int32(e.From) {
			c.badIn[i] = bad
		}
	}
}

// count returns the number of processors fault set f cuts off.
func (c *cutter) count(f topology.FaultSet) int {
	for _, v := range f.Nodes {
		for u := int32(v); !c.gone[u]; u = c.rot[u] {
			c.gone[u] = true
		}
	}
	for _, e := range f.Edges {
		c.markLink(e, true)
	}
	// Kosaraju: finishing order on the forward graph, then components
	// on the reverse graph in reverse finishing order.
	c.order = c.order[:0]
	for s := 0; s < c.size; s++ {
		if c.gone[s] || c.seen[s] {
			continue
		}
		c.seen[s] = true
		c.next[s] = c.outOff[s]
		c.stack = append(c.stack[:0], int32(s))
		for len(c.stack) > 0 {
			u := c.stack[len(c.stack)-1]
			if i := c.next[u]; i < c.outOff[u+1] {
				c.next[u]++
				if v := c.out[i]; !c.badOut[i] && !c.gone[v] && !c.seen[v] {
					c.seen[v] = true
					c.next[v] = c.outOff[v]
					c.stack = append(c.stack, v)
				}
				continue
			}
			c.order = append(c.order, u)
			c.stack = c.stack[:len(c.stack)-1]
		}
	}
	alive := len(c.order)
	// seen doubles as "not yet placed" in the reverse pass.
	largest := 0
	for k := len(c.order) - 1; k >= 0; k-- {
		s := c.order[k]
		if !c.seen[s] {
			continue
		}
		c.seen[s] = false
		c.stack = append(c.stack[:0], s)
		n := 0
		for len(c.stack) > 0 {
			u := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			n++
			for i := c.inOff[u]; i < c.inOff[u+1]; i++ {
				if v := c.in[i]; !c.badIn[i] && c.seen[v] {
					c.seen[v] = false
					c.stack = append(c.stack, v)
				}
			}
		}
		largest = max(largest, n)
	}
	for _, v := range f.Nodes {
		for u := int32(v); c.gone[u]; u = c.rot[u] {
			c.gone[u] = false
		}
	}
	for _, e := range f.Edges {
		c.markLink(e, false)
	}
	return alive - largest
}

// boundOK checks a served ring length against the reported bound.  It
// returns ok when the bound holds; otherwise explained reports whether
// the shortfall is exactly accounted for by processors the faulty
// necklaces cut off (the documented d = 2 case) rather than by the
// repair path.
func (c *cutter) boundOK(f topology.FaultSet, length, bound int) (ok, explained bool) {
	if length >= bound {
		return true, true
	}
	return false, length >= bound-c.count(f)
}
