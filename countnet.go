// Package countnet is a production-quality Go implementation of the
// counting network of Busch & Mavronicolas, "An Efficient Counting
// Network" (IPPS/SPDP'98; full version in Theoretical Computer Science
// 411, 2010), together with every substrate and baseline the paper builds
// on or compares against.
//
// # Overview
//
// A counting network (Aspnes, Herlihy & Shavit) is a distributed data
// structure of asynchronous (p,q)-balancers that implements a shared
// counter with low memory contention: tokens traverse the network from
// input wires to output wires, and in every quiescent state the number of
// tokens that exited each output wire satisfies the step property.
//
// The paper's contribution, constructed by NewCWT, is the irregular
// network C(w,t) whose output width t = p·w may exceed its input width w:
// its depth (lg²w+lgw)/2 depends only on w, while its amortized contention
// O(n·lgw/w + n·lg²w/t + w·lg³w/t + lg²w) falls as t grows. With
// t = w·lgw it beats the bitonic network of equal width and depth by a
// lg w factor at high concurrency.
//
// # What the package provides
//
//   - Constructors for C(w,t), its difference merging network M(t,δ), the
//     bitonic and periodic baselines, forward/backward butterflies, and
//     the diffracting tree.
//   - Lock-free concurrent traversal (one atomic add per balancer) and
//     shared Fetch&Increment / Fetch&Decrement counters.
//   - A high-throughput fast path: batched traversal for tokens AND
//     antitokens (Network.TraverseBatch / Network.TraverseAntiBatch, one
//     atomic add per balancer *touched* rather than per token), plus
//     batched, sharded and Inc/Dec-eliminating counters built on it.
//   - The Dwork–Herlihy–Waarts adversarial contention simulator.
//   - Quiescent-state verification (counting / k-smoothing / difference
//     merging properties).
//   - The Section 7 byproduct: balancing networks as sorting networks.
//   - A message-passing emulation (DistributedCluster) and TCP- and
//     UDP-sharded deployments, all speaking a batched message protocol
//     (one message per balancer touched per batch) with client-side
//     coalescing of concurrent callers into shared flights, and any list
//     of deployments of one kind composable into a pid-striped fleet
//     (NewFleet). TCP wires run from pooled, self-healing sessions:
//     health-probed at checkout, failed connections evicted pool-wide,
//     and flights retried EXACTLY-ONCE under a bounded budget via
//     seq-numbered idempotent frames (protocol v2). The UDP transport
//     (UDPCluster) turns that same machinery into a full reliability
//     layer: frames packed into MTU-budgeted datagrams, jittered
//     retransmit timers, and per-client dedup windows making every
//     mutating op exactly-once under packet loss, duplication and
//     reordering. The whole client stack — coalescing, pooling,
//     tape-driven retries, striping — is ONE implementation behind a
//     transport seam that all four deployments sit on; InprocCluster is
//     the dependency-free in-memory transport, with injectable
//     call/reply loss, and `make conformance` runs the one suite every
//     transport must pass.
//   - A production control plane (ServeControlPlane, DrainOnSignal):
//     every shard server, counter client and sharded fleet serves
//     /health (liveness + quiescence), /status (topology JSON) and
//     /metrics (Prometheus text format) from read-side views over the
//     atomics the data path already maintains, so a scrape never adds
//     an RPC or blocks a flight.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured record, and OPERATIONS.md for the operator's
// manual: fleet bring-up, scraping, the full metric reference, and the
// drain/triage runbooks.
//
// # Contributing
//
// Run `make check` before pushing — CI runs the same make targets,
// including `make lint`: cmd/countlint, the repository's own five static
// analyzers, which mechanize the tree's hand-audited invariants
// (spin-loop hygiene, atomics-only field access, build-tag pairing,
// errors.Is on sentinels, metric naming).
// DESIGN.md §6 documents the analyzers; the waiver policy for
// `//lint:ignore` is in OPERATIONS.md.
package countnet

import (
	"io"
	"math/rand"
	"net/http"
	"os"

	"repro/internal/bitonic"
	"repro/internal/butterfly"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/ctlplane"
	"repro/internal/distnet"
	"repro/internal/dtree"
	"repro/internal/feasibility"
	"repro/internal/inproc"
	"repro/internal/linearize"
	"repro/internal/merge"
	"repro/internal/network"
	"repro/internal/periodic"
	"repro/internal/shard"
	"repro/internal/sorting"
	"repro/internal/tcpnet"
	"repro/internal/timesim"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/xport"
)

// Network is a balancing network: an immutable DAG of balancers with
// ordered input and output wires, supporting lock-free concurrent token
// traversal and quiescent-state evaluation.
type Network = network.Network

// Builder incrementally constructs custom balancing networks; see
// NewBuilder.
type Builder = network.Builder

// Port is a dangling wire end handed out by a Builder.
type Port = network.Port

// NewBuilder starts a custom balancing network with the given input width.
// Use Builder.Balancer to add balancers and Builder.Finalize to obtain the
// Network.
func NewBuilder(name string, inWidth int) (*Builder, []Port) {
	return network.NewBuilder(name, inWidth)
}

// NewCWT constructs the paper's counting network C(w,t): input width
// w = 2^k, output width t = p·w (k, p >= 1). Its depth is (lg²w+lgw)/2
// regardless of t (Theorem 4.1) and it satisfies the counting property
// (Theorem 4.2).
func NewCWT(w, t int) (*Network, error) { return core.New(w, t) }

// CWTValid reports whether (w,t) are valid C(w,t) parameters.
func CWTValid(w, t int) bool { return core.Valid(w, t) }

// CWTDepth returns the Theorem 4.1 depth formula (lg²w + lgw)/2.
func CWTDepth(w int) int { return core.DepthFormula(w) }

// NewCWTWithBitonicMerger is the §3.3/§1.3.2 ablation: C(w,t) built with
// the bitonic merging network in place of M(t,δ). Still a counting
// network, but its depth grows with t instead of depending on w alone —
// the measured contrast is experiment E17.
func NewCWTWithBitonicMerger(w, t int) (*Network, error) {
	return core.NewWithBitonicMerger(w, t, bitonic.BuildMerger)
}

// NewMerger constructs the difference merging network M(t,δ) of Section 3:
// width t, depth lg δ; merges two step input halves whose sums differ by
// at most δ into a step output.
func NewMerger(t, delta int) (*Network, error) { return merge.New(t, delta) }

// NewCWTPrefix constructs C'(w,t): the first lgw layers of C(w,t) (blocks
// Na and Nb), which are s-smoothing with s = floor(w·lgw/t)+2 (Lemma 6.6).
func NewCWTPrefix(w, t int) (*Network, error) { return core.NewPrefix(w, t) }

// NewLadder constructs the single-layer ladder network L(w) pairing wires
// i and i+w/2.
func NewLadder(w int) (*Network, error) { return core.NewLadder(w) }

// NewBitonic constructs the bitonic counting network of width w (Aspnes,
// Herlihy & Shavit), the paper's primary regular baseline.
func NewBitonic(w int) (*Network, error) { return bitonic.New(w) }

// NewPeriodic constructs the periodic counting network of width w, the
// paper's second regular baseline (depth lg²w).
func NewPeriodic(w int) (*Network, error) { return periodic.New(w) }

// NewToggleTree constructs the diffracting tree's toggle-tree skeleton as
// a balancing network with 1 input wire and w output wires (§1.4.1).
func NewToggleTree(w int) (*Network, error) { return dtree.NewToggleNetwork(w) }

// DiffractingTree is the randomized diffracting tree of Shavit & Zemach
// with working prisms; see NewDiffractingTree.
type DiffractingTree = dtree.Tree

// DiffractingTreeOptions configures prism width and spin budget.
type DiffractingTreeOptions = dtree.Options

// NewDiffractingTree constructs a diffracting tree with w = 2^k leaves.
func NewDiffractingTree(w int, opts DiffractingTreeOptions) (*DiffractingTree, error) {
	return dtree.New(w, opts)
}

// Blocks is the Na/Nb/Nc block decomposition of C(w,t) (§1.3.2, Fig. 3).
type Blocks = core.Blocks

// Decompose returns the block decomposition of a network built by NewCWT.
func Decompose(n *Network) Blocks { return core.Decompose(n) }

// Counter is a shared Fetch&Increment counter.
type Counter = counter.Counter

// NetworkCounter is a counting-network-backed counter supporting both
// Fetch&Increment and Fetch&Decrement.
type NetworkCounter = counter.Network

// NewCounter wraps a counting network as a shared counter: m concurrent
// Inc operations return exactly the values 0..m-1.
func NewCounter(n *Network) *NetworkCounter { return counter.NewNetwork(n) }

// NewCentralCounter returns the single-atomic-word baseline counter.
func NewCentralCounter() Counter { return counter.NewCentral() }

// AdaptiveCounter migrates between a central word (low load) and a
// counting network (high load), keeping values dense across migrations —
// the Section 7 future-work direction (ref [27]). Network epochs serve
// increments in batches whose size is learned from the network's observed
// batching crossover (see AdaptiveCounterConfig.Batch).
type AdaptiveCounter = counter.Adaptive

// AdaptiveCounterConfig tunes the adaptive counter's migration thresholds.
type AdaptiveCounterConfig = counter.AdaptiveConfig

// NewAdaptiveCounter creates an adaptive counter starting in central mode.
func NewAdaptiveCounter(cfg AdaptiveCounterConfig) *AdaptiveCounter {
	return counter.NewAdaptive(cfg)
}

// NewLockedCounter returns the mutex-based baseline counter.
func NewLockedCounter() Counter { return counter.NewLocked() }

// High-throughput fast path -------------------------------------------------
//
// Three layers turn a counting network into a counter fit for very high
// concurrency. Network.TraverseBatch pushes k tokens through with one
// atomic fetch-add per balancer touched (a (p,q)-balancer hands
// consecutive tokens to consecutive wires, so a group splits
// arithmetically); the counters below build on it and on internal/shard.

// BatchedCounter amortizes network traversals by prefetching values k at
// a time through Network.TraverseBatch into per-stripe buffers. Claimed
// values are dense in quiescent states; buffered-but-unreturned ones are
// reported by Buffered.
type BatchedCounter = counter.Batched

// NewBatchedCounter wraps a counting network in a batched counter with
// the given batch size (<= 0 learns it from the network's observed
// batching crossover; see LearnBatchSize).
func NewBatchedCounter(n *Network, batch int) *BatchedCounter {
	return counter.NewBatched(counter.NewNetwork(n), batch)
}

// LearnBatchSize measures the network's batching crossover (per-token
// cost of TraverseBatch vs single-token traversal, probed on a clone) and
// returns a batch size at or past it — the structural estimate is the
// network size ≈ width·depth (EXPERIMENTS.md E23).
func LearnBatchSize(n *Network) int { return counter.LearnBatch(n) }

// ShardedCounter stripes Fetch&Increment traffic over several independent
// counting networks selected by pid hash; shard s of S hands out the
// residue class v·S + s, so values stay globally unique while hot words
// multiply by S.
type ShardedCounter = counter.Sharded

// NewShardedCounter builds a sharded counter over `shards` fresh networks
// produced by build (called once per shard).
func NewShardedCounter(shards int, build func() (*Network, error)) (*ShardedCounter, error) {
	return counter.NewSharded(shards, build)
}

// EliminatingCounter is an elimination front-end in the spirit of the
// diffracting tree's prism (§1.4.1): concurrent Inc/Dec pairs meet in an
// exchange slot, linearize as an adjacent Inc;Dec returning the same
// value to both callers, and never enter the network.
//
// Caveat: an eliminated pair's value is drawn from a slot-private
// sequence, not from the network, so it may coincide with a value a
// concurrent non-eliminated Inc is holding. The pair issues and revokes
// its value in one linearization step, so quiescent-state guarantees are
// unaffected — but Inc results from this counter are NOT unique live
// tickets. Use BatchedCounter or ShardedCounter where every Inc must
// hold a distinct value; use this counter where Inc/Dec traffic is
// balanced and only the net count matters (semaphores, load gauges).
type EliminatingCounter = shard.Eliminator

// EliminationOptions tunes the eliminator's slot count and spin budget.
type EliminationOptions = shard.EliminatorOptions

// NewEliminatingCounter wraps a counting-network counter with an
// elimination layer handling both Inc (tokens) and Dec (antitokens).
func NewEliminatingCounter(n *Network, opts EliminationOptions) (*EliminatingCounter, error) {
	return shard.NewEliminator(counter.NewNetwork(n), opts)
}

// Contention simulation ---------------------------------------------------

// Adversary schedules token transitions in the contention simulator.
type Adversary = contention.Adversary

// GreedyAdversary maximizes immediate stalls (convoying).
func GreedyAdversary() Adversary { return contention.Greedy{} }

// RandomAdversary schedules uniformly at random.
func RandomAdversary() Adversary { return contention.Random{} }

// RoundRobinAdversary advances all tokens in lockstep generations — the
// strongest strategy on counting networks (the DHW generation structure).
func RoundRobinAdversary() Adversary { return &contention.RoundRobin{} }

// ParkingAdversary keeps balancer crowds parked and runs the newest
// arrivals through them.
func ParkingAdversary() Adversary { return contention.Parking{} }

// StarverAdversary drives k runner processes through the network while all
// other tokens stay parked (the reservoir schedule).
func StarverAdversary(runners int) Adversary { return contention.Starver{Runners: runners} }

// AllAdversaries returns one instance of every built-in strategy.
func AllAdversaries() []Adversary { return contention.AllAdversaries() }

// MeasureContentionStrongest runs every built-in adversary and returns the
// result with the highest amortized contention — the best empirical lower
// bound on cont(B, n).
func MeasureContentionStrongest(n *Network, procs, rounds int, seed int64) ContentionResult {
	return contention.Strongest(n, contention.Config{N: procs, Rounds: rounds, Seed: seed})
}

// ContentionResult reports measured stalls for one simulated execution.
type ContentionResult = contention.Result

// MeasureContention runs m = n·rounds tokens through the network under the
// adversary (nil = greedy) and returns the Dwork–Herlihy–Waarts stall
// accounting, including per-layer and per-block attribution.
func MeasureContention(n *Network, procs, rounds int, adv Adversary, seed int64) ContentionResult {
	return contention.Run(n, contention.Config{N: procs, Rounds: rounds, Adversary: adv, Seed: seed})
}

// Verification -------------------------------------------------------------

// VerifyCounting checks the counting property over exhaustive small inputs
// plus `trials` random input count vectors. A nil error means no
// counterexample was found.
func VerifyCounting(n *Network, exhaustiveSum, trials int, rng *rand.Rand) error {
	return network.CheckCounting(n, exhaustiveSum, trials, rng)
}

// VerifySmoothing checks the k-smoothing property over the same sweep.
func VerifySmoothing(n *Network, k int64, exhaustiveSum, trials int, rng *rand.Rand) error {
	return network.CheckSmoothing(n, k, exhaustiveSum, trials, rng)
}

// VerifyDifferenceMerger checks the difference-merging property with
// parameter delta.
func VerifyDifferenceMerger(n *Network, delta int64, exhaustiveSum, trials int, rng *rand.Rand) error {
	return network.CheckDifferenceMerger(n, delta, exhaustiveSum, trials, rng)
}

// Rendering ----------------------------------------------------------------

// Summary returns a structural description (widths, depth, per-layer
// balancer census).
func Summary(n *Network) string { return network.Summary(n) }

// Diagram returns an exact layer-by-layer wiring listing.
func Diagram(n *Network) string { return network.Diagram(n) }

// BrickDiagram renders a classic horizontal-wire diagram for all-(2,2)
// regular networks (the Fig. 2 style).
func BrickDiagram(n *Network) (string, error) { return network.BrickDiagram(n) }

// DOT renders the network as a Graphviz digraph.
func DOT(n *Network) string { return network.DOT(n) }

// Marshal serializes a network topology (including balancer initial
// states and block labels) to JSON for interchange; Unmarshal rebuilds it.
func Marshal(n *Network) ([]byte, error) { return network.Marshal(n) }

// Unmarshal rebuilds a network from Marshal's JSON, re-validating the
// wiring.
func Unmarshal(data []byte) (*Network, error) { return network.Unmarshal(data) }

// Cascade composes networks in series (outputs of each feed inputs of the
// next); e.g. the periodic network is a cascade of lgw butterfly blocks.
func Cascade(name string, stages ...*Network) (*Network, error) {
	return network.Cascade(name, stages...)
}

// Sorting (§7) --------------------------------------------------------------

// SortingNetwork is a comparator network derived from a balancing network.
type SortingNetwork = sorting.Comparator

// NewSortingNetwork converts a regular all-(2,2) balancing network into a
// comparator network; if the source network counts, the result sorts
// (Section 7: C(w,w) gives a new O(lg²w)-depth sorting network).
func NewSortingNetwork(n *Network) (*SortingNetwork, error) { return sorting.FromNetwork(n) }

// Distributed emulation -----------------------------------------------------

// Distributed is a running message-passing deployment of a network: one
// server goroutine per balancer (the refs [19,20] real-system stand-in).
// Batches of tokens or antitokens travel as pipeline wavefronts — one
// message per balancer touched (InjectBatch / InjectAntiBatch) — and
// Messages reports the deployment's link-level cost.
type Distributed = distnet.System

// DistributedConfig tunes link buffering and per-hop latency.
type DistributedConfig = distnet.Config

// StartDistributed launches the servers; call Stop when done.
func StartDistributed(n *Network, cfg DistributedConfig) *Distributed {
	return distnet.Start(n, cfg)
}

// DistributedCluster is a running message-passing deployment plus its
// exit cells, on the same transport seam as the socket clusters: create
// counters with its NewCounter / NewCounterPool, stripe several with
// NewFleet, and Stop it once they are closed.
type DistributedCluster = distnet.Cluster

// StartDistributedCluster launches the servers and exit cells of a
// distributed counter deployment of the network.
func StartDistributedCluster(n *Network, cfg DistributedConfig) *DistributedCluster {
	return distnet.NewCluster(n, cfg)
}

// DistributedCounter is the Fetch&Increment / Fetch&Decrement client over
// a DistributedCluster — the same coalescing client as TCPCounter:
// concurrent Inc callers on one input wire share a batched flight,
// IncBatch/DecBatch expose the batch protocol directly, and RPCs is the
// deployment's link-level message bill. The link cannot fail, so the
// only error is the closed sentinel after Close.
type DistributedCounter = distnet.Counter

// Execution tracing (§2.2 executions as transition sequences) ----------------

// TraceRecorder captures concurrent traversals for certification.
type TraceRecorder = trace.Recorder

// Trace is a linearized execution certificate.
type Trace = trace.Trace

// NewTraceRecorder returns an empty execution recorder. Shepherd tokens
// with rec.Traverse(net, wire, token); then Linearize reconstructs a legal
// serial schedule from the per-balancer sequence indices (an acyclicity
// certificate for the lock-free run) and Trace.Replay re-validates it
// against the network's semantics.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Timing simulation (refs [19,20]) -------------------------------------------

// TimingConfig parameterizes the discrete-event queueing simulator.
type TimingConfig = timesim.Config

// TimingResult reports simulated throughput, latency and utilization.
type TimingResult = timesim.Result

// SimulateTiming runs a closed-loop discrete-event queueing simulation of
// the network: each balancer is a FIFO server, each process a client with
// a think time; optional contention-dependent service inflation models
// hot memory words. Host-independent reproduction of the refs [19,20]
// throughput/latency sweeps.
func SimulateTiming(n *Network, cfg TimingConfig) TimingResult {
	return timesim.Run(n, cfg)
}

// TCP deployment (refs [19,20] real-system stand-in) -------------------------

// TCPShard is one balancer server in a TCP-sharded deployment.
type TCPShard = tcpnet.Shard

// TCPCluster is the client-side view of a sharded deployment.
type TCPCluster = tcpnet.Cluster

// TCPSession is a single-goroutine client holding one connection per
// shard. Besides per-token Inc (depth+1 round trips), it speaks the
// batched wire frames: IncBatch/DecBatch shepherd k tokens or antitokens
// as one pipeline costing one STEPN round trip per balancer touched plus
// one CELLN per exit wire. Standalone sessions perform no retries and
// speak the stateless v1 frames; sessions pooled under a TCPCounter
// speak protocol v2 (client id + seq-numbered frames, deduped by the
// shards) so the counter's retries are exactly-once.
type TCPSession = tcpnet.Session

// TCPCounter is the cluster-wide coalescing client: concurrent Inc
// callers entering on the same input wire merge into one in-flight
// batched pipeline running on a session checked out of a shared
// connection pool (TCPCluster.NewCounterPool configures the width). The
// pool self-heals: idle sessions are health-probed at checkout (no
// round trip), a session that fails mid-flight is evicted pool-wide,
// and the flight retries on fresh sessions under a bounded
// attempt/deadline budget (SetRetryPolicy). Retries are exactly-once —
// they re-send the same sequence numbers and the shards' dedup windows
// replay already-applied frames — so absorbed connection losses leave
// no gaps and no duplicates in the value sequence. Close returns
// ErrTCPCounterClosed to stranded callers (including a window racing a
// retry) instead of a raw connection error. Create with
// TCPCluster.NewCounter or NewCounterPool.
type TCPCounter = tcpnet.Counter

// ErrTCPCounterClosed is the sentinel a TCPCounter returns once Close has
// been called, including to callers pooled in a coalescing window.
var ErrTCPCounterClosed = tcpnet.ErrClosed

// StartTCPShard launches shard `index` of `shards` for the topology on
// addr ("host:0" picks a free port). Shard i owns balancers and exit cells
// with id ≡ i (mod shards); a balancer access is one TCP round trip — the
// remote analogue of the §1.2 shared memory word.
func StartTCPShard(addr string, topo *Network, index, shards int) (*TCPShard, error) {
	return tcpnet.StartShard(addr, topo, index, shards)
}

// NewTCPCluster wires a topology to its shard addresses.
func NewTCPCluster(topo *Network, addrs []string) *TCPCluster {
	return tcpnet.NewCluster(topo, addrs)
}

// StartTCPCluster launches one loopback deployment of topo across
// `shards` TCP servers and returns the client cluster plus a stop
// function — the test/benchmark harness; production deployments dial
// real addresses via NewTCPCluster.
func StartTCPCluster(topo *Network, shards int) (*TCPCluster, func(), error) {
	return tcpnet.StartCluster(topo, shards)
}

// UDP deployment (datagram transport over the exactly-once wire layer) -------

// UDPShard is one balancer server in a UDP-sharded deployment: the same
// balancer/cell partitioning as a TCPShard, served as packed datagrams
// of seq-numbered v2 frames, every mutating frame deduplicated per
// client — which is what lets clients retransmit over a transport that
// drops, duplicates and reorders.
type UDPShard = udpnet.Shard

// UDPCluster is the client-side view of a UDP-sharded deployment. Its
// retransmit policy (attempts, budget, jittered exponential timer) is
// set per cluster with SetRetransmitPolicy; SetDialWrapper installs the
// packet-path fault-injection hook (see UDPFaults).
type UDPCluster = udpnet.Cluster

// UDPSession is a single-goroutine client holding one connected socket
// per shard. Batched pipelines pack each topology layer's STEPN frames
// (and the whole exit-cell phase) into MTU-budgeted datagrams, so the
// per-frame bill equals tcpnet's while the packet bill is several times
// smaller; RPCs/Packets/Retransmits report the three costs.
type UDPSession = udpnet.Session

// UDPCounter is the cluster-wide coalescing client over UDP: the same
// single-flight windows, pooled sessions and exactly-once tape-driven
// retries as TCPCounter, with packet loss inside the retransmit budget
// absorbed below the flight layer entirely. Create with
// UDPCluster.NewCounter or NewCounterPool.
type UDPCounter = udpnet.Counter

// ErrUDPCounterClosed is the sentinel a UDPCounter returns once Close
// has been called, including to callers pooled in a coalescing window.
var ErrUDPCounterClosed = udpnet.ErrClosed

// UDPFaults injects deterministic packet-path faults (drop, duplicate,
// reorder, delay) into a cluster's sockets via
// UDPCluster.SetDialWrapper(faults.Wrapper()) — the chaos-testing and
// E28 loss-sweep harness.
type UDPFaults = udpnet.Faults

// StartUDPShard launches shard `index` of `shards` for the topology on
// addr ("host:0" picks a free port), partitioned exactly like
// StartTCPShard.
func StartUDPShard(addr string, topo *Network, index, shards int) (*UDPShard, error) {
	return udpnet.StartShard(addr, topo, index, shards)
}

// NewUDPCluster wires a topology to its shard addresses.
func NewUDPCluster(topo *Network, addrs []string) *UDPCluster {
	return udpnet.NewCluster(topo, addrs)
}

// StartUDPCluster launches one loopback deployment of topo across
// `shards` UDP servers and returns the client cluster plus a stop
// function — the test/benchmark harness; production deployments dial
// real addresses via NewUDPCluster.
func StartUDPCluster(topo *Network, shards int) (*UDPCluster, func(), error) {
	return udpnet.StartCluster(topo, shards)
}

// In-memory deployment (the transport-seam conformance link) ----------------

// InprocShard is one balancer server of an in-memory deployment: the
// same balancer/cell partitioning and per-client exactly-once dedup as
// a TCPShard or UDPShard, served by direct calls — no sockets, no
// goroutines, no kernel. It exists to prove the transport seam: the
// full client stack runs over it unchanged, and the conformance suite
// uses it as the deterministic fault-injection substrate.
type InprocShard = inproc.Shard

// InprocCluster is the client-side view of an in-memory deployment. It
// implements the same transport link the socket clusters do, plus two
// fault arms the conformance tests drive: SetFaults (probabilistic
// call/reply loss) and LoseReplies (the next n mutating exchanges
// apply server-side but report failure — the pure replay case).
type InprocCluster = inproc.Cluster

// InprocSession is a single-goroutine client of an in-memory
// deployment, every mutating frame seq-numbered and deduplicated.
type InprocSession = inproc.Session

// InprocCounter is the cluster-wide coalescing client over the
// in-memory link: the identical pooled/coalescing/retrying counter
// that serves TCP and UDP, at zero wire cost. Create with
// InprocCluster.NewCounter or NewCounterPool.
type InprocCounter = inproc.Counter

// ErrInprocCounterClosed is the sentinel an InprocCounter returns once
// Close has been called. It is the SAME sentinel every transport's
// counter returns — errors.Is against any one of them matches all.
var ErrInprocCounterClosed = inproc.ErrClosed

// InprocFaults configures probabilistic call/reply loss on an
// in-memory cluster via InprocCluster.SetFaults: a lost call never
// reaches the shard, a lost reply is applied server-side and the
// client must replay through the dedup window.
type InprocFaults = inproc.Faults

// StartInprocCluster builds one in-memory deployment of topo across
// `shards` shards and returns the client cluster plus a stop function
// closing every shard.
func StartInprocCluster(topo *Network, shards int) (*InprocCluster, func(), error) {
	return inproc.StartCluster(topo, shards)
}

// Fleets --------------------------------------------------------------------

// FleetCounter is the fleet-wide client over S independent deployments:
// a caller is routed by pid hash (the same striping discipline as
// ShardedCounter) to its stripe's pooled coalescing counter, stripe s
// hands out the residue class v·S + s so values stay globally unique
// while the hot links and cells multiply by S, and the read side (RPCs,
// Packets, Read) aggregates across stripes.
type FleetCounter = xport.ShardedCounter

// NewFleet composes deployments of one kind and one topology shape —
// []*TCPCluster, []*UDPCluster, []*InprocCluster or
// []*DistributedCluster; stripes[i] serves stripe i — into a pid-striped
// fleet with one pooled counter per stripe (poolWidth <= 0 defaults to
// each stripe's input width). Close the FleetCounter before stopping the
// deployments under it.
func NewFleet[D xport.Deployment](stripes []D, poolWidth int) (*FleetCounter, error) {
	return xport.NewFleet(stripes, poolWidth)
}

// Control plane (/health, /status, /metrics; OPERATIONS.md) -----------------

// ControlPlaneSource is anything the admin surface can front: every
// shard server (TCPShard, UDPShard), pooled counter client (TCPCounter,
// UDPCounter, DistributedCounter) and sharded fleet implements it.
type ControlPlaneSource = ctlplane.Source

// ControlPlaneHealth is the /health document: Live (the target accepts
// new work) and Quiescent (nothing in flight — the exact-count Read
// precondition).
type ControlPlaneHealth = ctlplane.Health

// ControlPlaneSample is one evaluated metric reading.
type ControlPlaneSample = ctlplane.Sample

// ControlPlaneFleet aggregates member sources under a distinguishing
// label so one endpoint shows per-member load side by side.
type ControlPlaneFleet = ctlplane.Fleet

// ControlPlaneServer is one listening admin endpoint.
type ControlPlaneServer = ctlplane.Server

// NewControlPlaneFleet builds an empty aggregate; member samples gain
// the label labelKey="<member value>".
func NewControlPlaneFleet(name, labelKey string) *ControlPlaneFleet {
	return ctlplane.NewFleet(name, labelKey)
}

// ControlPlaneOptions selects the optional admin endpoints:
// Pprof mounts net/http/pprof under /debug/pprof/ (off by default —
// profiling exposes stacks and timings; opt in deliberately).
type ControlPlaneOptions = ctlplane.HandlerOptions

// ControlPlaneFlightEvent is one completed flight from a counter's
// bounded trace ring, served as JSON at /debug/flights.
type ControlPlaneFlightEvent = ctlplane.FlightEvent

// ServeControlPlane starts the admin surface for src on addr: /health
// (HTTP 503 once draining or closed), /status, /metrics, and — when
// src is a counter or fleet of counters — /debug/flights.
func ServeControlPlane(addr string, src ControlPlaneSource) (*ControlPlaneServer, error) {
	return ctlplane.Serve(addr, src)
}

// ServeControlPlaneOpts is ServeControlPlane with the optional
// endpoints (pprof) selected.
func ServeControlPlaneOpts(addr string, src ControlPlaneSource, opts ControlPlaneOptions) (*ControlPlaneServer, error) {
	return ctlplane.ServeOpts(addr, src, opts)
}

// ControlPlaneHandler returns the admin mux for src, for mounting under
// an existing HTTP server.
func ControlPlaneHandler(src ControlPlaneSource) http.Handler {
	return ctlplane.Handler(src)
}

// ControlPlaneHandlerOpts is ControlPlaneHandler with the optional
// endpoints (pprof) selected.
func ControlPlaneHandlerOpts(src ControlPlaneSource, opts ControlPlaneOptions) http.Handler {
	return ctlplane.HandlerOpts(src, opts)
}

// DrainOnSignal runs drain once when one of the given signals arrives
// (default SIGTERM and SIGINT): close the counters, then the shards,
// and the fleet lands with exact counts. See the OPERATIONS.md runbook.
func DrainOnSignal(drain func(), signals ...os.Signal) (done <-chan struct{}, cancel func()) {
	return ctlplane.DrainOnSignal(drain, signals...)
}

// WritePrometheusMetrics renders samples in the Prometheus text
// exposition format (version 0.0.4).
func WritePrometheusMetrics(w io.Writer, samples []ControlPlaneSample) error {
	return ctlplane.WritePrometheus(w, samples)
}

// Butterflies (§5) ----------------------------------------------------------

// NewForwardButterfly constructs the lgw-smoothing forward butterfly D(w).
func NewForwardButterfly(w int) (*Network, error) { return butterfly.NewForward(w) }

// NewBackwardButterfly constructs the backward butterfly E(w), isomorphic
// to D(w) (Lemma 5.3).
func NewBackwardButterfly(w int) (*Network, error) { return butterfly.NewBackward(w) }

// Feasibility (§1.4.2, Aharonson–Attiya) -------------------------------------

// Constructible reports whether a counting network of output width t can
// possibly be built from balancers with the given output widths: every
// prime factor of t must divide some balancer width. Returns the first
// offending prime when not.
func Constructible(t int, balancerOuts []int) (ok bool, offendingPrime int) {
	return feasibility.Constructible(t, balancerOuts)
}

// AuditFeasibility checks a concrete network against the Aharonson–Attiya
// necessary condition.
func AuditFeasibility(n *Network) error { return feasibility.AuditNetwork(n) }

// Linearizability observation (§1.4.2) --------------------------------------

// LinearizabilityReport summarizes observed order inversions of a counter.
type LinearizabilityReport = linearize.Report

// ObserveLinearizability runs procs goroutines x per increments against
// inc under a logical clock and counts linearizability violations
// (operations that started after another finished yet received a smaller
// value). Counting networks are not linearizable (ref [16]); a central
// counter shows zero inversions.
func ObserveLinearizability(procs, per int, inc func(pid int) int64) LinearizabilityReport {
	var r linearize.Recorder
	return linearize.Analyze(r.Record(procs, per, inc))
}
