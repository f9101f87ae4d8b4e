package repair

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"debruijnring/topology"
)

// TestFFCPatcherIncrementalNodeFaults streams random node faults one at
// a time into the structural patcher on several De Bruijn instances and
// checks every patched ring verifies, respects the dⁿ − nf bound, and
// that most events are absorbed locally.
func TestFFCPatcherIncrementalNodeFaults(t *testing.T) {
	cases := []struct{ d, n, faults int }{
		{2, 8, 8},
		{2, 10, 10},
		{3, 5, 5},
		{4, 4, 4},
	}
	for _, tc := range cases {
		net, err := topology.NewDeBruijn(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		p := newFFCPatcher(net) // the structural tier in isolation
		ring, info, err := p.Embed(topology.FaultSet{})
		if err != nil {
			t.Fatalf("B(%d,%d): initial embed: %v", tc.d, tc.n, err)
		}
		if len(ring) != net.Nodes() {
			t.Fatalf("B(%d,%d): fault-free ring has %d of %d nodes", tc.d, tc.n, len(ring), net.Nodes())
		}
		_ = info

		rng := rand.New(rand.NewSource(int64(7*tc.d + tc.n)))
		var faults topology.FaultSet
		patched, reembeds := 0, 0
		for i := 0; i < tc.faults; i++ {
			x := rng.Intn(net.Nodes())
			add := topology.NodeFaults(x)
			faults = faults.Union(add)
			newRing, outcome := p.Patch(add)
			switch outcome {
			case Patched:
				patched++
				ring = newRing
			case Noop:
				// ring unchanged
			case Unsupported:
				reembeds++
				ring, _, err = p.Embed(faults)
				if err != nil {
					t.Fatalf("B(%d,%d) fault %d: fallback embed: %v", tc.d, tc.n, i, err)
				}
			}
			if !topology.VerifyRing(net, ring, faults) {
				t.Fatalf("B(%d,%d) fault %d (node %d, outcome %v): ring fails verification",
					tc.d, tc.n, i, x, outcome)
			}
			if bound := net.Nodes() - tc.n*len(faults.Canonical().Nodes); len(ring) < bound {
				t.Fatalf("B(%d,%d) fault %d: ring length %d below bound %d",
					tc.d, tc.n, i, len(ring), bound)
			}
		}
		if patched == 0 {
			t.Errorf("B(%d,%d): no fault was absorbed locally (%d re-embeds)", tc.d, tc.n, reembeds)
		}
	}
}

// TestFFCPatcherDuplicateAndOffComponentFaults checks the Noop paths: a
// fault on an already-faulty necklace and a fault outside the embedded
// component leave the ring untouched.
func TestFFCPatcherDuplicateAndOffComponentFaults(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 6)
	p := newFFCPatcher(net)
	ring, _, err := p.Embed(topology.NodeFaults(5))
	if err != nil {
		t.Fatal(err)
	}
	// Another node of necklace(5) — 5 = 000101 rotates through 10 (001010).
	g := net.Graph()
	rot := g.RotL(5)
	if _, outcome := p.Patch(topology.NodeFaults(rot)); outcome != Noop {
		t.Errorf("fault on already-faulty necklace: outcome %v, want Noop", outcome)
	}
	if _, outcome := p.Patch(topology.NodeFaults(5)); outcome != Noop {
		t.Errorf("duplicate fault: outcome %v, want Noop", outcome)
	}
	// An off-ring edge fault is absorbed; the ring it traverses is not.
	var off topology.Edge
	onRing := make(map[int]int, len(ring))
	for i, v := range ring {
		onRing[v] = ring[(i+1)%len(ring)]
	}
	found := false
	for u := 0; u < net.Nodes() && !found; u++ {
		var buf []int
		for _, w := range net.Successors(u, buf) {
			if w != u && onRing[u] != w {
				off = topology.Edge{From: u, To: w}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no off-ring edge found")
	}
	if _, outcome := p.Patch(topology.EdgeFaults(off)); outcome != Noop {
		t.Errorf("off-ring edge fault: outcome %v, want Noop", outcome)
	}
	if _, outcome := p.Patch(topology.EdgeFaults(topology.Edge{From: ring[0], To: onRing[ring[0]]})); outcome != Unsupported {
		t.Errorf("on-ring edge fault: want Unsupported (re-embed)")
	}
}

// TestFFCPatcherRootFaultFallsBack removes the distinguished node's
// necklace, which must force a full re-embed.
func TestFFCPatcherRootFaultFallsBack(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 6)
	p := newFFCPatcher(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	if ring[0] != 0 {
		t.Fatalf("fault-free ring roots at %d, want 0", ring[0])
	}
	if _, outcome := p.Patch(topology.NodeFaults(0)); outcome != Unsupported {
		t.Errorf("root fault: outcome %v, want Unsupported", outcome)
	}
	// The fallback re-embed restores patchability.
	ring, _, err = p.Embed(topology.NodeFaults(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome := p.Patch(topology.NodeFaults(ring[3])); outcome != Patched {
		t.Errorf("post-fallback patch: outcome %v, want Patched", outcome)
	}
}

// TestFFCPatcherSnapshotRestore round-trips the structural state through
// a snapshot and checks the restored patcher keeps patching identically.
func TestFFCPatcherSnapshotRestore(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 8)
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	faults := topology.FaultSet{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		add := topology.NodeFaults(rng.Intn(net.Nodes()))
		faults = faults.Union(add)
		if r, o := p.Patch(add); o == Patched {
			ring = r
		} else if o == Unsupported {
			ring, _, err = p.Embed(faults)
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	state, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(state) == 0 {
		t.Fatal("valid patcher produced an empty snapshot")
	}
	q := For(net)
	if err := q.Restore(state, ring, faults); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// Both patchers absorb the same subsequent fault identically.
	add := topology.NodeFaults(ring[len(ring)/2])
	faults = faults.Union(add)
	r1, o1 := p.Patch(add)
	r2, o2 := q.Patch(add)
	if o1 != o2 {
		t.Fatalf("outcomes diverge after restore: %v vs %v", o1, o2)
	}
	if o1 == Patched {
		if !equalInts(r1, r2) {
			t.Error("patched rings diverge after restore")
		}
		if !topology.VerifyRing(net, r2, faults) {
			t.Error("restored patcher produced an invalid ring")
		}
	}

	// A corrupted ring is rejected.
	bad := append([]int(nil), ring...)
	bad[0], bad[1] = bad[1], bad[0]
	if err := For(net).Restore(state, bad, faults); err == nil {
		t.Error("Restore accepted a snapshot that does not reproduce the ring")
	}
}

// TestGenericPatcherBypassSplice pins the splice machinery on Q₃ with a
// hand-built ring that leaves off-ring spares (the repo's embedders
// cover every survivor, so spares only arise from shrunk or restored
// rings): cutting node 5 from the 6-ring 0-1-3-7-5-4 must reroute
// 7 → 6 → 4 through the spare 6.
func TestGenericPatcherBypassSplice(t *testing.T) {
	net, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	if _, ok := p.(*genericPatcher); !ok {
		t.Fatal("expected the generic patcher for the hypercube")
	}
	ring := []int{0, 1, 3, 7, 5, 4} // spares: 2 and 6
	if err := p.Restore(nil, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	faults := topology.NodeFaults(5)
	got, outcome := p.Patch(faults)
	if outcome != Patched {
		t.Fatalf("outcome %v, want Patched", outcome)
	}
	want := []int{4, 0, 1, 3, 7, 6}
	if !equalInts(got, want) {
		t.Fatalf("patched ring = %v, want %v", got, want)
	}
	if !topology.VerifyRing(net, got, faults) {
		t.Error("patched ring fails verification")
	}

	// Off-ring faults (the unused spare 2) are a Noop.
	if _, o := p.Patch(topology.NodeFaults(2)); o != Noop {
		t.Errorf("off-ring fault: outcome %v, want Noop", o)
	}
}

// TestGenericPatcherEdgeFaultBypass cuts a link the ring uses; the
// splice must reroute through the two spares and avoid the failed wire
// in both orientations (the hypercube is undirected).
func TestGenericPatcherEdgeFaultBypass(t *testing.T) {
	net, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	ring := []int{0, 1, 3, 7, 5, 4} // spares: 2 and 6
	if err := p.Restore(nil, ring, topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	faults := topology.EdgeFaults(topology.Edge{From: 3, To: 7})
	got, outcome := p.Patch(faults)
	if outcome != Patched {
		t.Fatalf("outcome %v, want Patched", outcome)
	}
	if !topology.VerifyRing(net, got, faults) {
		t.Fatalf("patched ring %v fails verification", got)
	}
	if len(got) != 8 {
		t.Errorf("bypass ring has %d nodes, want 8 (detour through both spares)", len(got))
	}
	// The reverse orientation must be avoided too.
	if !topology.VerifyRing(net, got, topology.EdgeFaults(topology.Edge{From: 7, To: 3})) {
		t.Error("patched ring uses the failed wire in reverse")
	}
}

// TestGenericPatcherFallbackOnHamiltonian streams node faults onto a
// fresh Hamiltonian hypercube ring: with no spares the patcher must
// decline cleanly (never produce an invalid ring) and recover through
// Embed fallbacks.
func TestGenericPatcherFallbackOnHamiltonian(t *testing.T) {
	net, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	p := For(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	faults := topology.FaultSet{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ { // the hypercube construction tolerates n−2 faults
		x := ring[rng.Intn(len(ring))]
		add := topology.NodeFaults(x)
		faults = faults.Union(add)
		r, outcome := p.Patch(add)
		switch outcome {
		case Patched:
			ring = r
		case Noop:
		case Unsupported:
			ring, _, err = p.Embed(faults)
			if err != nil {
				t.Fatalf("fault %d: fallback embed: %v", i, err)
			}
		}
		if !topology.VerifyRing(net, ring, faults) {
			t.Fatalf("fault %d (node %d, outcome %v): ring fails verification", i, x, outcome)
		}
	}
}

// TestPatcherSelection pins the For dispatch.
func TestPatcherSelection(t *testing.T) {
	db, _ := topology.NewDeBruijn(2, 4)
	if _, ok := For(db).(*chainPatcher); !ok {
		t.Error("De Bruijn did not get the structural/splice repair chain")
	}
	se, err := topology.NewShuffleExchange(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := For(se)
	if _, ok := p.(*genericPatcher); !ok {
		t.Error("shuffle-exchange did not get the generic patcher")
	}
	// Dilation-2 closed walks are not splicable: every patch re-embeds.
	if _, _, err := p.Embed(topology.FaultSet{}); err != nil {
		t.Fatal(err)
	}
	if _, o := p.Patch(topology.NodeFaults(1)); o != Unsupported {
		t.Errorf("dilation-2 patch: outcome %v, want Unsupported", o)
	}
}

// TestFFCSnapshotRoundTripAfterLifecycle runs a seeded Patch/Unpatch
// sequence on B(2,10), then checks that Snapshot → Restore on a fresh
// patcher reproduces the ring and that the restored patcher's own
// Snapshot is byte-identical, overrides in ascending node order.
func TestFFCSnapshotRoundTripAfterLifecycle(t *testing.T) {
	net, _ := topology.NewDeBruijn(2, 10)
	p := newFFCPatcher(net)
	ring, _, err := p.Embed(topology.FaultSet{})
	if err != nil {
		t.Fatal(err)
	}
	var faults topology.FaultSet
	rng := rand.New(rand.NewSource(1014))
	outcomes := map[Outcome]int{}
	for step := 0; step < 40; step++ {
		var r []int
		var o Outcome
		prev := faults
		switch k := rng.Intn(4); {
		case k == 0 && len(faults.Nodes) > 0:
			heal := topology.NodeFaults(faults.Nodes[rng.Intn(len(faults.Nodes))])
			faults = faults.Minus(heal)
			r, o = p.Unpatch(heal)
		case k == 1: // a link the ring traverses
			j := rng.Intn(len(ring))
			add := topology.EdgeFaults(topology.Edge{From: ring[j], To: ring[(j+1)%len(ring)]})
			faults = faults.Union(add)
			r, o = p.Patch(add)
		case len(faults.Nodes) < 4:
			add := topology.NodeFaults(rng.Intn(net.Nodes()))
			faults = faults.Union(add)
			r, o = p.Patch(add)
		default:
			continue
		}
		outcomes[o]++
		switch o {
		case Patched, Reordered, Readmitted:
			ring = r
		case Unsupported:
			if ring, _, err = p.Embed(faults); err != nil {
				faults = prev
				if ring, _, err = p.Embed(faults); err != nil {
					t.Fatalf("step %d: re-embed of previous state: %v", step, err)
				}
			}
		}
	}
	if outcomes[Patched] == 0 || outcomes[Readmitted] == 0 || outcomes[Reordered] == 0 {
		t.Fatalf("sequence missed a local outcome: %v", outcomes)
	}

	state, err := p.Snapshot()
	if err != nil || len(state) == 0 {
		t.Fatalf("Snapshot: %q, %v", state, err)
	}
	var st ffcState
	if err := json.Unmarshal(state, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Overrides) == 0 {
		t.Fatal("snapshot carries no overrides")
	}
	for i := 1; i < len(st.Overrides); i++ {
		if st.Overrides[i-1][0] >= st.Overrides[i][0] {
			t.Fatalf("overrides not in ascending node order at %d: %v", i, st.Overrides[i-1:i+1])
		}
	}
	q := newFFCPatcher(net)
	if err := q.Restore(state, ring, faults); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, ok := q.walk(); !ok || !equalInts(got, ring) {
		t.Fatal("restored patcher does not reproduce the ring")
	}
	again, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, state) {
		t.Errorf("second snapshot differs:\n%s\n%s", state, again)
	}
}
