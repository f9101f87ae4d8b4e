package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"debruijnring/topology"
)

// mapRingDelta is the map-based ring diff the dense ringDelta replaced,
// kept verbatim as the reference its output must match.
func mapRingDelta(old, cur []int) (removed, added []int, truncated bool) {
	inOld := make(map[int]bool, len(old))
	for _, v := range old {
		inOld[v] = true
	}
	inNew := make(map[int]bool, len(cur))
	for _, v := range cur {
		inNew[v] = true
	}
	for _, v := range old {
		if !inNew[v] {
			removed = append(removed, v)
		}
	}
	for _, v := range cur {
		if !inOld[v] {
			added = append(added, v)
		}
	}
	if len(removed)+len(added) > deltaLimit {
		return nil, nil, true
	}
	return removed, added, false
}

// mutateRing returns a copy of ring with drop random members removed
// and add fresh nodes of [0, n) inserted at random positions.
func mutateRing(rng *rand.Rand, n int, ring []int, drop, add int) []int {
	cur := append([]int(nil), ring...)
	for i := 0; i < drop; i++ {
		j := rng.Intn(len(cur))
		cur = append(cur[:j], cur[j+1:]...)
	}
	in := make(map[int]bool, len(ring))
	for _, v := range ring {
		in[v] = true
	}
	for _, v := range rng.Perm(n) {
		if add == 0 {
			break
		}
		if in[v] {
			continue
		}
		j := rng.Intn(len(cur) + 1)
		cur = append(cur[:j], append([]int{v}, cur[j:]...)...)
		add--
	}
	return cur
}

// TestRingDeltaMatchesMapReference pins the dense ringDelta to the map
// version byte for byte: the same removed order (old's), added order
// (cur's) and deltaLimit truncation, on random ring pairs over B(2,12)
// and then on a smaller network that reuses the pooled set.
func TestRingDeltaMatchesMapReference(t *testing.T) {
	const n = 4096 // B(2,12)
	rng := rand.New(rand.NewSource(14))
	perm := rng.Perm(n)
	base := perm[:3000]
	shuffled := append([]int(nil), base...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	check := func(name string, n int, old, cur []int) (truncated bool) {
		t.Helper()
		wr, wa, wt := mapRingDelta(old, cur)
		gr, ga, gt := ringDelta(n, old, cur)
		if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(ga, wa) || gt != wt {
			t.Errorf("%s: dense delta (-%v +%v trunc %v) != map reference (-%v +%v trunc %v)",
				name, gr, ga, gt, wr, wa, wt)
		}
		return wt
	}
	for _, tc := range []struct {
		name      string
		old, cur  []int
		wantTrunc bool
	}{
		{"identical", base, append([]int(nil), base...), false},
		{"reordered", base, shuffled, false},
		{"disjoint", perm[:2000], perm[2000:4000], true},
		{"empty-old", nil, base, true},
		{"pure-removal", base, mutateRing(rng, n, base, 12, 0), false},
		{"pure-addition", base, mutateRing(rng, n, base, 0, 12), false},
		{"mixed", base, mutateRing(rng, n, base, 7, 5), false},
		{"under-limit", base, mutateRing(rng, n, base, deltaLimit/2, deltaLimit/2-1), false},
		{"at-limit", base, mutateRing(rng, n, base, deltaLimit/2, deltaLimit/2), false},
		{"over-limit", base, mutateRing(rng, n, base, deltaLimit/2, deltaLimit/2+1), true},
		{"at-limit-added-only", base, mutateRing(rng, n, base, 0, deltaLimit), false},
		{"over-limit-added-only", base, mutateRing(rng, n, base, 0, deltaLimit+1), true},
		{"at-limit-removed-only", base, mutateRing(rng, n, base, deltaLimit, 0), false},
		{"over-limit-removed-only", base, mutateRing(rng, n, base, deltaLimit+1, 0), true},
	} {
		if trunc := check(tc.name, n, tc.old, tc.cur); trunc != tc.wantTrunc {
			t.Errorf("%s: truncated = %v, want %v", tc.name, trunc, tc.wantTrunc)
		}
	}
	for i := 0; i < 20; i++ {
		old := mutateRing(rng, n, base, rng.Intn(200), rng.Intn(200))
		check(fmt.Sprintf("random-%d", i), n, old, mutateRing(rng, n, old, rng.Intn(80), rng.Intn(80)))
	}
	// The pooled set was sized for B(2,12); a smaller network reuses it.
	small := rng.Perm(64)
	check("B(2,6) after B(2,12)", 64, small[:40], mutateRing(rng, 64, small[:40], 5, 9))
}

// TestRingHashOncePerChangeStream drives a seeded fault/heal stream
// that covers noop, rejected and re-embed events and checks that the
// hash stored with each ring change is the hash of the ring the session
// serves: on every event, on StateSnapshot, and after a journal
// restore (from creation and from a snapshot).
func TestRingHashOncePerChangeStream(t *testing.T) {
	for _, snapEvery := range []int{1000, 8} {
		t.Run(fmt.Sprintf("snapshot-every-%d", snapEvery), func(t *testing.T) {
			dir := t.TempDir()
			m := NewManager(nil, Options{Dir: dir, SnapshotEvery: snapEvery})
			s, err := m.Create("h", "debruijn(2,6)", topology.FaultSet{})
			if err != nil {
				t.Fatal(err)
			}
			net := s.Network()
			rng := rand.New(rand.NewSource(7))
			seen := map[string]int{}
			hashAt := map[uint64]string{}
			for step := 0; step < 120; step++ {
				faults, ring := s.Faults(), s.Ring()
				live := len(faults.Nodes) + len(faults.Edges)
				var ev *Event
				switch op := rng.Intn(10); {
				case op < 3 && live > 0: // heal one live fault
					i := rng.Intn(live)
					if i < len(faults.Nodes) {
						ev, _ = s.RemoveFaults(topology.NodeFaults(faults.Nodes[i]))
					} else {
						ev, _ = s.RemoveFaults(topology.EdgeFaults(faults.Edges[i-len(faults.Nodes)]))
					}
				case op == 3 && live > 0 && len(faults.Nodes) > 0: // duplicate fault: noop
					ev, _ = s.AddFaults(topology.NodeFaults(faults.Nodes[0]))
				case op < 7: // fault a link the ring traverses
					j := rng.Intn(len(ring))
					ev, _ = s.AddFaults(topology.EdgeFaults(topology.Edge{From: ring[j], To: ring[(j+1)%len(ring)]}))
				case op == 7: // fault the ring head
					ev, _ = s.AddFaults(topology.NodeFaults(ring[0]))
				default: // fault any processor, past tolerance too
					ev, _ = s.AddFaults(topology.NodeFaults(rng.Intn(net.Nodes())))
				}
				if ev == nil {
					t.Fatalf("step %d: no event", step)
				}
				seen[ev.Repair]++
				want := ringHash(s.Ring())
				if ev.RingHash != want {
					t.Fatalf("step %d (%s): event hash %s != hash of served ring %s", step, ev.Repair, ev.RingHash, want)
				}
				if got := s.StateSnapshot(false).RingHash; got != want {
					t.Fatalf("step %d (%s): StateSnapshot hash %s != %s", step, ev.Repair, got, want)
				}
				hashAt[ev.Seq] = ev.RingHash
			}
			for _, kind := range []string{"noop", "rejected", "reembed", "local"} {
				if seen[kind] == 0 {
					t.Errorf("stream produced no %q event (saw %v)", kind, seen)
				}
			}
			t.Logf("repair mix over the stream: %v", seen)
			want := s.StateSnapshot(false)

			// Kill without a final snapshot; the journal alone restores.
			m2 := NewManager(nil, Options{Dir: dir, SnapshotEvery: snapEvery})
			if _, errs := m2.Restore(); len(errs) > 0 {
				t.Fatalf("restore: %v", errs)
			}
			s2, ok := m2.Get("h")
			if !ok {
				t.Fatal("session not restored")
			}
			got := s2.StateSnapshot(false)
			if got.RingHash != ringHash(s2.Ring()) {
				t.Errorf("restored StateSnapshot hash %s != hash of restored ring %s", got.RingHash, ringHash(s2.Ring()))
			}
			if got.RingHash != want.RingHash || got.Seq != want.Seq {
				t.Errorf("restored hash/seq %s/%d, want %s/%d", got.RingHash, got.Seq, want.RingHash, want.Seq)
			}
			replayed, _ := s2.EventsSince(0, 0, nil)
			for _, ev := range replayed {
				if (ev.Kind == "fault" || ev.Kind == "heal") && ev.RingHash != hashAt[ev.Seq] {
					t.Errorf("replayed seq %d hash %s != live %s", ev.Seq, ev.RingHash, hashAt[ev.Seq])
				}
			}
			if len(replayed) == 0 && snapEvery > 120 {
				t.Error("restore from creation replayed no events")
			}
		})
	}
}
