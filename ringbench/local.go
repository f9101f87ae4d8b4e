package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"debruijnring/fleet"
	"debruijnring/obs"
	"debruijnring/session"
	"debruijnring/topology"
)

// coveragePrefix is the number of leading events of every session's
// trace that ring_coverage averages over: the prefix is the same for
// every run of a seed, so the metric repeats exactly.
const localCoveragePrefix = 64

// streamSession is one session of the local-stream population as its
// owning client sees it.
type streamSession struct {
	name     string
	trace    *sessionTrace
	events   int
	lastHash string
	covSum   float64
	// met counts the prefix events whose ring reached the reported
	// lower bound.
	met int
}

// localBench is the local-stream workload: 32 sessions on B(2,12)
// driven through client → router → primary → session → journal →
// replica by 2 closed-loop clients.
type localBench struct {
	net      topology.Network
	tr       *tracer
	stack    *fleetStack
	clients  []*session.Client
	cuts     []*cutter
	regs     []*obs.Registry
	sessions []*streamSession
	owned    [][]*streamSession
	cursor   []int

	mu    sync.Mutex
	tiers map[string]int

	journalBase int64
	eventsBase  int
	retryBase   int64
}

func setupLocal(cfg *config, dir string) (bench, error) {
	net, err := topology.FromSpec(streamSpec)
	if err != nil {
		return nil, err
	}
	stack, err := startFleet(dir, cfg.tracer)
	if err != nil {
		return nil, err
	}
	b := &localBench{net: net, tr: cfg.tracer, stack: stack, tiers: map[string]int{}}
	for c := 0; c < cfg.callers; c++ {
		reg := obs.NewRegistry()
		tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		b.clients = append(b.clients, &session.Client{
			Base:    stack.RouterURL,
			HTTP:    &http.Client{Transport: opTransport{base: tp}},
			Metrics: reg,
		})
		b.regs = append(b.regs, reg)
		b.cuts = append(b.cuts, newCutter(net))
		b.owned = append(b.owned, nil)
		b.cursor = append(b.cursor, 0)
	}
	ctx := context.Background()
	for i := 0; i < streamSessions; i++ {
		c := i % cfg.callers
		s := &streamSession{name: fmt.Sprintf("ls-%02d", i), trace: newSessionTrace(net, b.cuts[c], cfg.seed, i)}
		st, err := b.clients[c].Create(ctx, session.CreateRequest{Name: s.name, Topology: streamSpec})
		if err != nil {
			b.Close()
			return nil, err
		}
		s.lastHash = st.RingHash
		b.sessions = append(b.sessions, s)
		b.owned[c] = append(b.owned[c], s)
	}
	return b, nil
}

func (b *localBench) Callers() int { return len(b.clients) }

func (b *localBench) Op(c int, op uint64) opResult {
	s := b.owned[c][b.cursor[c]]
	b.cursor[c] = (b.cursor[c] + 1) % len(b.owned[c])
	cl := b.clients[c]
	st := s.trace.Next()
	ctx := withOp(context.Background(), op)
	apply := cl.AddFaults
	if st.Heal {
		apply = cl.RemoveFaults
	}
	var resp *session.FaultsResponse
	var err error
	start := time.Now()
	b.tr.timed(op, spanClient, s.name, func() { resp, err = apply(ctx, s.name, st.Req) })
	res := opResult{Lat: time.Since(start)}

	if err != nil && (resp == nil || resp.Event.Repair != "rejected") {
		// No decision came back (transport error, 5xx after retries):
		// learn from the server whether the batch landed.
		res.Fail = "transport"
		state, serr := cl.State(context.Background(), s.name)
		if serr != nil {
			res.Wrong = fmt.Sprintf("%s: state unreadable after a failed op: %v", s.name, serr)
			return res
		}
		before := s.trace.Live()
		s.trace.Commit(st, true)
		if !sameFaults(b.net, state, s.trace.Live()) {
			s.trace = s.trace.rollback(before)
		}
		s.lastHash = state.RingHash
		return res
	}
	ev := resp.Event
	accepted := err == nil
	s.trace.Commit(st, accepted)
	s.events++
	b.mu.Lock()
	b.tiers[ev.Repair]++
	b.mu.Unlock()
	if op != 0 {
		b.tr.add(span{Op: op, Kind: spanSession, Name: s.name, End: ev.ElapsedNs, Outcome: ev.Repair})
		for _, t := range ev.Tiers {
			b.tr.add(span{Op: op, Kind: spanTier, Name: t.Tier, End: t.ElapsedNs, Outcome: t.Outcome})
		}
	}
	if !accepted {
		res.Fail = "rejected"
	}
	live := s.trace.Live()
	if !sameFaults(b.net, &resp.State, live) {
		res.Wrong = fmt.Sprintf("%s seq %d: server fault set differs from the client's", s.name, ev.Seq)
	}
	ok, explained := b.cuts[c].boundOK(live, ev.RingLength, ev.LowerBound)
	switch {
	case !explained:
		res.Fail = "bound_short"
		res.Wrong = fmt.Sprintf("%s seq %d: ring %d < bound %d, not explained by cut-off processors", s.name, ev.Seq, ev.RingLength, ev.LowerBound)
	case !ok:
		res.Short = true
	}
	s.lastHash = ev.RingHash
	if s.events <= localCoveragePrefix {
		s.covSum += float64(ev.RingLength) / float64(b.net.Nodes()-len(live.Nodes))
		if ok {
			s.met++
		}
	}
	return res
}

// sameFaults compares the server's reported fault set with the client's.
func sameFaults(net topology.Network, st *session.StateJSON, want topology.FaultSet) bool {
	edges := make([][2]string, len(st.EdgeFaults))
	for i, e := range st.EdgeFaults {
		edges[i] = [2]string{e.From, e.To}
	}
	got, err := topology.ParseFaults(net, st.NodeFaults, edges)
	if err != nil {
		return false
	}
	return got.Canonical().Key() == want.Key()
}

func (b *localBench) Settled(c int) bool {
	for _, s := range b.owned[c] {
		if s.events < localCoveragePrefix {
			return false
		}
	}
	return true
}

func (b *localBench) Coverage() (coverage, boundMet float64) {
	for _, s := range b.sessions {
		coverage += s.covSum / localCoveragePrefix
		boundMet += float64(s.met) / localCoveragePrefix
	}
	n := float64(len(b.sessions))
	return coverage / n, boundMet / n
}

// Final fetches every session's full ring through the fleet and checks
// it against the client's own live fault set and last acknowledged
// hash.
func (b *localBench) Final() error {
	ctx := context.Background()
	var errs []error
	for _, s := range b.sessions {
		st, err := b.clients[0].State(ctx, s.name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ring := make([]int, len(st.Ring))
		for i, l := range st.Ring {
			if ring[i], err = b.net.Parse(l); err != nil {
				break
			}
		}
		live := s.trace.Live()
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s: ring label: %v", s.name, err))
		case !topology.VerifyRing(b.net, ring, live):
			errs = append(errs, fmt.Errorf("%s: final ring fails VerifyRing against the client's fault set", s.name))
		case st.RingHash != s.lastHash:
			errs = append(errs, fmt.Errorf("%s: final hash %s != last acknowledged %s", s.name, st.RingHash, s.lastHash))
		case st.RingLength != len(ring):
			errs = append(errs, fmt.Errorf("%s: ring_length %d != %d labels", s.name, st.RingLength, len(ring)))
		}
	}
	if rs := b.stack.Primary.Replication(); rs.State != fleet.ReplicaOK {
		errs = append(errs, fmt.Errorf("replication left the ok state: %s", rs.State))
	}
	return errors.Join(errs...)
}

// MarkPhase notes the journal size, event and retry counts a phase
// starts from, for the per-op layer ratios.
func (b *localBench) MarkPhase() {
	b.journalBase = dirBytes(b.stack.PrimaryDir)
	b.eventsBase = b.totalEvents()
	b.retryBase = b.retries()
}

func (b *localBench) totalEvents() int {
	n := 0
	for _, s := range b.sessions {
		n += s.events
	}
	return n
}

// retries sums the retry counters of every client's Metrics registry.
func (b *localBench) retries() int64 {
	var n int64
	for _, reg := range b.regs {
		for _, kind := range []string{"transient", "drain", "torn"} {
			n += reg.Counter("session_client_retries_total", "kind", kind).Value()
		}
	}
	return n
}

func (b *localBench) Layers(in *layerInput) []metric {
	by := opSpans(in.Spans)
	var client, router, primary, replica, sessSelf, overhead, declined int64
	var routerN, replicaN, ops int
	var tierUs [3]int64
	var tierRan, tierServed [3]int
	reembedServed := 0
	for op := in.FirstOp; op <= in.LastOp; op++ {
		sp := by[op]
		c, n := sumKind(sp, spanClient)
		if n == 0 {
			continue
		}
		ops++
		r, rn := sumKind(sp, spanRouter)
		p, _ := sumKind(sp, spanPrimary)
		rep, repn := sumKind(sp, spanReplica)
		client += c
		router += r
		routerN += rn
		primary += p
		replica += rep
		replicaN += repn
		var elapsed, tiers int64
		repair := ""
		last := -1
		for _, s := range sp {
			switch s.Kind {
			case spanSession:
				elapsed, repair = s.dur(), s.Outcome
			case spanTier:
				i := tierIndex(s.Name)
				tierUs[i] += s.dur()
				tierRan[i]++
				tiers += s.dur()
				last = i
			}
		}
		sessSelf += elapsed - tiers
		overhead += p - elapsed - rep
		served := last >= 0 && repair != "rejected"
		if served {
			tierServed[last]++
		}
		if repair == "reembed" {
			reembedServed++
		}
		for _, s := range sp {
			if s.Kind == spanTier && !(served && tierIndex(s.Name) == last) {
				declined += s.dur()
			}
		}
	}
	fops := float64(max(ops, 1))
	us := func(ns int64) float64 { return float64(ns) / fops / 1e3 }
	perRun := func(i int) float64 { return ratio(float64(tierUs[i]), float64(tierRan[i])) / 1e3 }
	selfSum := us(client-router) + us(router-primary) + us(overhead) + us(replica) + us(sessSelf) +
		us(tierUs[0]) + us(tierUs[1]) + us(tierUs[2])
	observed := meanUs(in.Traced.Lat)
	events := b.totalEvents() - b.eventsBase
	out := []metric{
		{"client.self_us", "us", us(client - router)},
		{"client.retries_per_op", "count", ratio(float64(b.retries()-b.retryBase), float64(events))},
		{"router.self_us", "us", us(router - primary)},
		{"router.requests_per_op", "count", float64(routerN) / fops},
		{"shard.span_us", "us", us(primary)},
		{"shard.overhead_us", "us", us(overhead)},
		{"replica.append_us", "us", ratio(float64(replica), float64(replicaN)) / 1e3},
		{"replica.appends_per_op", "count", float64(replicaN) / fops},
		{"session.self_us", "us", us(sessSelf)},
		{"repair.ffc_us", "us", perRun(0)},
		{"repair.splice_us", "us", perRun(1)},
		{"repair.reembed_us", "us", perRun(2)},
		{"repair.ffc_accept_ratio", "ratio", ratio(float64(tierServed[0]), float64(tierRan[0]))},
		{"repair.splice_accept_ratio", "ratio", ratio(float64(tierServed[1]), float64(tierRan[1]))},
		{"repair.reembed_share", "ratio", float64(reembedServed) / fops},
		{"repair.declined_us", "us", us(declined)},
		{"journal.bytes_per_event", "B", ratio(float64(dirBytes(b.stack.PrimaryDir)-b.journalBase), float64(events))},
		{"trace.op_mean_us", "us", observed},
		{"trace.residual_us", "us", observed - selfSum},
	}
	return out
}

func tierIndex(name string) int {
	switch name {
	case "ffc":
		return 0
	case "splice":
		return 1
	}
	return 2
}

func (b *localBench) Tiers() []metric {
	b.mu.Lock()
	defer b.mu.Unlock()
	return tierShares(b.tiers)
}

// tierShares renders an outcome histogram as the tier-honesty mix.
func tierShares(counts map[string]int) []metric {
	total := 0
	for _, n := range counts {
		total += n
	}
	out := make([]metric, 0, 5)
	for _, k := range []string{"local", "splice", "reembed", "noop", "rejected"} {
		out = append(out, metric{"tiers." + k + "_share", "ratio", ratio(float64(counts[k]), float64(total))})
	}
	return out
}

func (b *localBench) Close() {
	if b.stack != nil {
		b.stack.Close()
	}
	for _, cl := range b.clients {
		cl.HTTP.CloseIdleConnections()
	}
}
