// Package lint documentation: the ringlint analyzer catalogue and
// annotation grammar.
//
// # Analyzers
//
// ringlint machine-checks the conventions the repo's headline
// guarantees rest on.  Four analyzers run over every non-test package
// of the module:
//
//   - determinism — in kernel-classified code (internal/ffc,
//     internal/repair, internal/dense, internal/netsim, fleet/hash.go)
//     time.Now/time.Since and draws from the global math/rand source
//     are forbidden; module-wide, `range` over a map must be provably
//     order-insensitive (see below) or annotated.  Guards: the
//     hash-verified journal replay (PR 3/6) and bit-identical
//     Simulate tables at any worker count, plus byte-stable /v1/fleet,
//     /v1/stats and /metrics output.
//
//   - noalloc — functions marked //ringlint:noalloc (obs counters and
//     histograms, the dense epoch-scratch paths, the splice tier's
//     per-event surgery) are walked transitively with their
//     module-internal callees and flagged on make/new, slice/map and
//     &-taken composite literals, append growth, string concatenation,
//     fmt.*, interface boxing, dynamic calls, and calls into stdlib
//     packages not on the known-clean allowlist (sync/atomic, math,
//     math/bits).  Guards: the ~24ns/0-alloc Observe path and the
//     bytes/op CI gates (PR 8/9).
//
//   - atomics — an object whose address is passed to a sync/atomic
//     function must never be read or written plainly anywhere in the
//     module, and values of the atomic.* cell types must not be copied
//     (assignment, argument, return) — go vet's copylocks does not
//     cover them.  Guards: -race cleanliness of the obs counters.
//
//   - journal — in the session and fleet packages every error from a
//     Write/Append/Sync call must be checked; bare-statement calls,
//     `_ =` discards and go/defer invocations are flagged.  Guards:
//     replication's zero-acknowledged-event-loss story — a dropped
//     journal error is a silently lost ack.
//
// # Order-insensitivity
//
// The determinism analyzer accepts a map-range without annotation when
// it can prove the result is independent of iteration order:
//
//   - pure accumulation — every statement is a keyed map write
//     (m[k] = v, m[k] += v), a numeric compound accumulation
//     (x += v, x |= v, x++), delete(m, k), continue, a plain
//     assignment whose RHS mentions neither calls nor loop-locals
//     (found = true), or an if/nested loop over those forms;
//   - append-then-sort — the body appends to local slices (optionally
//     under if-guards) and every such slice is passed to sort.* /
//     slices.Sort* in the statements after the loop.
//
// The prover treats if-conditions as pure; a side-effecting condition
// can defeat it.  That is a deliberate precision/noise trade-off — the
// analyzer is a lint, not a verifier.
//
// # Annotation grammar
//
// Two comment directives, always lowercase, no space after "//":
//
//	//ringlint:noalloc
//
// placed in a function's doc comment marks it as a transitive
// no-allocation root.
//
//	//ringlint:allow <rule> <reason...>
//
// suppresses findings of <rule> on the same line (trailing comment) or
// on the line directly below the comment.  <rule> is one of time,
// rand, maporder, alloc, atomic, journal.  The reason is mandatory —
// an allow without one is itself a finding.  Examples:
//
//	//ringlint:allow maporder close order is immaterial
//	for name, jw := range rp.writers { ... }
//
//	p.trace = append(p.trace[:0], step) //ringlint:allow alloc pooled, amortized
//
// Malformed or unknown //ringlint: directives are reported by the
// directive pseudo-analyzer.
//
// # Running
//
//	go run ./cmd/ringlint ./...     # lint the whole module, exit 1 on findings
//	go run ./cmd/ringlint -list     # print analyzers, classification, annotation counts
//
// The suite is wired into tier-1 CI next to go vet; fixture-based
// golden tests live under testdata/src and a self-check test asserts
// the repo itself stays finding-free.
package lint
