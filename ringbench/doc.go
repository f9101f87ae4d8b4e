// Command ringbench is the repository benchmark: one single-process
// program that assembles the production serving stack in-process from
// public constructors, drives seeded closed-loop traffic through it,
// checks every output, and prints every metric by name and unit.
//
// Run it from the repository root (the wrapper builds the program into
// .bench_build/ and keeps every file it writes there):
//
//	bash ringbench/run.sh --workload local-stream --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload untraced for half the time and traced for the other half
// and prints the per-layer metrics, the tracing overhead and, on
// local-stream, the residual of the self-time decomposition.  The last
// line of standard output is always one JSON object with the keys
// correct, attempted, failed and metrics.  The seed fixes every input:
// the same seed gives the same fault/heal traces and requests, and the
// program under test receives only the generated labels.
//
// # Stack
//
// local-stream runs the full fleet path: fleet.NewShard as the standby,
// fleet.NewShard as the primary replicating to it, fleet.NewRouter in
// front, each on its own loopback listener, driven by session.Client.
// embed-cold calls engine.New's EmbedRing directly; failover-restore
// uses session.NewManager directly.  Load comes from at most nproc
// (= 2) closed-loop caller goroutines, each with one connection: a
// controller cannot report the next fault on a session before it
// holds the repaired ring from the last one.
//
// # Workloads
//
// local-stream: 32 sessions on debruijn(2,12), two clients each owning
// 16 sessions round-robin.  Each session follows a seeded fault/heal
// trace: a heal with probability 0.5 when anything is faulty, otherwise
// a new fault.  Faults come in epochs that start whenever the session
// is fault-free: a processor epoch holds up to n−1 = 11 processor
// faults, drawn uniformly; a link epoch (probability 0.77, so about one
// fault in four is a link fault) holds one link fault at a time, never
// one that cuts a processor off.  Processor and link faults never stand
// together because the program serves a mixed set best-effort only: its
// re-embed fails (422) when the FFC ring around the processor faults
// crosses a faulty link, which a uniform mix hit on about 0.2% of
// events.  With d = 2 the Hamiltonian re-embed tolerates no link fault,
// so a link set the local tiers cannot serve is rejected too: two live
// links sometimes were, a single link that cuts nothing off never was.
// The trace stays out of those input classes so that no op fails.  One
// op is one acknowledged AddFaults or RemoveFaults.
// Chosen because it is the production hot path: the repair tiers are a
// minority of each event, and session bookkeeping, HTTP, journal and
// replication take the rest, while the few events that fall through to
// re-embed set p99.  It moves under transport, bookkeeping, journal and
// repair-tier changes.
//
// embed-cold: one-shot EmbedRing on debruijn(2,16) from 2 callers, each
// request carrying 1–16 random processor faults; one request in four
// repeats one of that caller's last 64 fault sets and so is a cache hit
// by construction.  Chosen because the cold FFC kernel (broadcast BFS
// plus tree, star and ring assembly) does nearly all the work and
// session, journal, HTTP and replication do none: a change to those
// layers should show no change here, while the parallel-BFS decision
// and engine-cache changes do.
//
// failover-restore: journals for the local-stream population (same
// generator, same seed), written during set-up through a journaled
// session.Manager and left as a crashed primary leaves them, with no
// closing snapshot.  Each journal holds two snapshot periods plus a
// tail; the tails are a seeded permutation of 0…31 events, so every
// seed replays the same spread of tail lengths.  One op is RestoreNamed
// of one session on a fresh Manager over the directory (load, snapshot
// restore, hash-verified replay).  32 ops restore the whole population
// into that Manager, as a promotion does; the sessions are then
// released, untimed, and the next cycle starts on a new Manager.  A
// phase ends only between cycles.  One caller, as promotion does.  Chosen because it reads the journal and replays
// the bookkeeping local-stream writes, so the two use the same layers
// in opposite directions: a change that speeds appends by making replay
// or the journal format costlier shows here.  Promotion downtime is the
// sum of these ops.
//
// # End-to-end metrics
//
//	setup_s        median of several set-ups in the run (3; 5 on embed-cold)
//	ops_per_s      completed ops per second, median over windows
//	op_p50_ms      median latency of the timed call (checks excluded),
//	               median over windows
//	op_p90_ms      90th percentile latency, median over windows; every run
//	               measures at least 1000 ops
//	ring_coverage  mean ring length ÷ (dⁿ − live faulty processors) over a
//	               fixed prefix of every stream (64 events per session,
//	               256 requests per caller, the first restore of each
//	               session), so it repeats exactly for a seed
//	bound_met_ratio share of the rings over the same prefix that reach
//	               the reported lower bound dⁿ − nf (on failover-restore:
//	               of the fault and heal events in the journals the first
//	               restore of each session loads); repeats exactly for a
//	               seed
//	heap_inuse_mb  live heap after a forced GC at the end of the measured
//	               phase; on embed-cold it includes the cached rings
//
// The windows are consecutive stretches of the measured phase, at least
// 1 s long and holding about 200 ops each; taking the median over them
// keeps a burst of interference on the host from moving the figure.  A
// lasting change of host speed still moves it: on the 2-vCPU virtual
// machine this benchmark was tuned on, a single-threaded CPU loop
// drifts by 5–10% over minutes while local-stream's op_p50_ms moves by
// up to 30% between the host's fast and slow spells.
//
// op_p99_ms over every op and its sample count are printed as well but
// not gated: on
// failover-restore the top 1% of ops is the restore of the single
// costliest journal of 32, and which journal that is depends on the
// seed (a session caught in the root-necklace cliff re-embeds nearly
// every replayed event), so it varies from seed to seed by more than
// any usable bound.  The human-readable output also reports the host's
// steal time and the slowest and fastest 1 s window, to explain a noisy
// run.
//
// A failed op is a transport error, a non-2xx or 422 response, a ring
// that fails VerifyRing, a ring shorter than its reported lower bound
// by more than its faults cut off (see below), or a hash mismatch.  No
// op fails at any seed tried; error_rate is printed, not gated.
//
// # Output checks
//
// Every fault or heal response must satisfy ring_length ≥ lower_bound
// and report the fault set the client holds.  At the end of
// local-stream every session's full ring is fetched through the fleet
// and checked with topology.VerifyRing against the client's own live
// fault set, and its hash must equal the last acknowledged event's.
// embed-cold runs VerifyRing on every returned ring outside the timed
// call, and a repeated fault set must hit the cache.  Every restored
// ring must pass VerifyRing and match the journaled hash and fault set,
// and restores must leave the journals byte-identical.
//
// A ring shorter than its bound is checked against the processors that
// the faulty necklaces and links cut off from the largest surviving
// strongly connected component.  If they account for the whole
// shortfall the op is served, not failed; otherwise it fails and the
// run is incorrect (correct=false).  For d = 2 one processor fault on
// the necklace of 0…01 isolates 0…0, so no ring can exceed
// dⁿ − nf − 1, yet the program still reports dⁿ − nf: the paper's bound
// needs f ≤ d−2, which d = 2 never meets.  The same over-promise makes
// the session refuse every local repair of such a set (the ring is
// "too short"), so these events are the root-necklace re-embeds.  The
// processor traces are uniform and keep them (about 2% of local-stream
// events, under 1% of embed-cold requests): bound_met_ratio gates their
// share and bound_short_share prints it for the measured ops.
//
// # Per-layer metrics
//
// The traced run records spans only from this package: the client call
// (the root span), http.Handler wrappers around the router, the primary
// and the standby, and wrappers around engine.EmbedRing,
// Manager.RestoreNamed and Store.Load.  The op id travels as a request
// header from the client through the router to the primary; replica
// spans attach to the primary span of the same session by time
// containment.  The event's ElapsedNs and Tiers become child spans of
// the primary span.  Spans stay in memory and are written to
// .bench_build/spans-<workload>-seed<N>.jsonl at the end.  A metric
// whose layer does not run in a workload reports 0 and is marked in
// the human-readable output.
//
//	metric                                   layer        measured as                                  should move
//	client.self_us, client.retries_per_op    session      client span − router spans; retry counters    op_p50_ms, ops_per_s
//	                                         client       of the client's Metrics registry              (local-stream)
//	router.self_us, router.requests_per_op   fleet        router spans − primary spans                 op_p50_ms, ops_per_s
//	                                         router                                                     (local-stream)
//	shard.span_us, shard.overhead_us         fleet shard  primary span; overhead = span − ElapsedNs −   op_p50_ms (local-stream)
//	                                                      replica span (HTTP codec, publish, local
//	                                                      journal append, lock wait)
//	replica.append_us, replica.appends_per_op fleet       standby span on /v1/replica/ requests         op_p50_ms (local-stream)
//	                                         replication
//	session.self_us                          session      ElapsedNs − Σ tier times (validate, verify,   op_p50_ms (local-stream;
//	                                                      ring delta, hash)                            restore.replay_us is the
//	                                                                                                   session cost of a restore)
//	repair.ffc_us, repair.splice_us,         repair, ffc  per-tier time, averaged over the events       op_p50_ms (ffc),
//	repair.reembed_us                                     where that tier ran                          op_p90_ms, op_p99_ms (reembed)
//	repair.ffc_accept_ratio,                 repair       served ÷ attempted per tier; share of events  op_p99_ms, ring_coverage
//	repair.splice_accept_ratio,                           served by re-embed; time in tiers that        (local-stream)
//	repair.reembed_share, repair.declined_us              declined, per op
//	journal.bytes_per_event                  session      journal directory growth ÷ events (exact)    op_p50_ms (failover-restore)
//	                                         store
//	journal.load_us                          session      Store.Load span (benchmark-side wrapper      op_p50_ms (failover-restore)
//	                                         store        passed as session.Options.Store)
//	restore.replay_us,                       session      RestoreNamed span − load span; events after   op_p99_ms (failover-restore)
//	restore.replayed_events                               the last snapshot
//	engine.cache_hit_ratio,                  engine       CacheStats deltas; EmbedRing span split by    ops_per_s, op_p50_ms
//	engine.hit_us, engine.miss_us                         the per-request hit flag                      (embed-cold)
//	process.cpu_us_per_op, process.cpu_util  process      rusage user+sys ÷ ops and ÷ wall time         ops_per_s (embed-cold:
//	                                                                                                   does the parallel BFS
//	                                                                                                   use the second core?)
//	process.alloc_bytes_per_op,              process      runtime.MemStats deltas                      ops_per_s, heap_inuse_mb
//	process.mallocs_per_op,                                                                            (every workload)
//	process.gc_cycles_per_kop
//	tiers.{local,splice,reembed,noop,        repair       share of events by the tier that served them  tier honesty: a "repair"
//	rejected}_share                                       (replayed events on failover-restore; all 0  number must not secretly
//	                                                      on embed-cold, which runs no ladder)          be a re-embed number
//	trace.overhead_pct                       benchmark    untraced ÷ traced ops per second − 1
//	trace.op_mean_us, trace.residual_us      benchmark    client-observed mean op time of the traced
//	                                                      half, and it minus Σ self times (local-stream)
//
// Process metrics come from the untraced half of the traced run.
//
// # Left out
//
// The open-loop rate sweep with a latency-SLO gate, multi-process
// shards, stage spans inside the program, and the BENCH_dense.json
// ladder and cmd/benchjson gate fixes (they touch the repository's
// tests and CI) are not part of this benchmark.
package main
