// Package conformance holds the transport conformance suite: one set
// of behavioural tests run identically against every transport that
// plugs into the internal/xport seam — tcpnet (stream sockets), udpnet
// (datagrams with retransmit), inproc (the dependency-free in-memory
// link with injectable faults) and distnet (the message-passing
// emulation, which has no fault to inject: it runs the cells that need
// no fault hook — the exact-count grid, close-during-flight, the drain
// health flips and the defaults).
//
// The suite is the executable contract a new transport must satisfy
// before it ships:
//
//   - Exact counts under chaos: with transport-appropriate faults
//     injected (connection kills, datagram loss/duplication/reordering,
//     lost calls and replies), a striped fleet still hands out dense,
//     gap-free, duplicate-free values and reads back the exact total.
//   - Exactly-once retry/replay: a flight that dies mid-window replays
//     its sequence tape on a fresh session and the shard-side dedup
//     absorbs every duplicate — no value leaks, no double-steps.
//   - Close semantics: Close during concurrent flights drains cleanly,
//     every caller observes xport.ErrClosed (the one shared sentinel),
//     and the control-plane health flips live -> closed.
//   - Identical wire bills: the per-token RPC cost is integer-equal
//     across transports at k=1 and k=64 — the frame count is a property
//     of the walk, not the link — and batched amortisation stays under
//     the 1.05 rpcs/token budget.
//   - Single-source defaults: retry attempts, backoff and pool-width
//     defaults come from xport alone; the per-transport aliases cannot
//     drift.
//
// The package has no non-test code beyond this doc; `make conformance`
// (and the CI job of the same name) runs it under the race detector.
package conformance
