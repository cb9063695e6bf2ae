package main

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// tracedSlices is how long the decorated fleet runs in a traced run,
// after an untraced phase of the full -seconds (the C rows, the demoted
// end-to-end metrics and the baseline of trace.overhead_ratio) and
// before the standalone replays.
const tracedSlices = 5

// runTraced is the traced run: an untraced phase for the count rows, a
// phase over the span-recording decorators for the self-time rows, and
// the standalone replays. It emits every per-layer metric; no gated
// number comes from here.
func runTraced(w *workload, seed int64, seconds int) (*result, error) {
	fmt.Printf("workload %s (traced: %d untraced slices, %d traced slices, replays): %s\n", w.name, seconds, tracedSlices, w.why)
	res := &result{Correct: true, Metrics: metrics{}}
	m := res.Metrics

	f, err := w.start(nil)
	if err != nil {
		return nil, err
	}
	pu, err := runPhase(w, f, seed, seconds, sliceLen, nil)
	if err == nil {
		finish(f, pu, res)
	}
	f.close()
	if err != nil {
		return nil, err
	}
	countMetrics(pu, m)
	for name, v := range timing(pu) {
		m.set(name, v)
	}

	tr := newTracer(traceCap)
	if f, err = w.start(tr); err != nil {
		return nil, err
	}
	pt, err := runPhase(w, f, seed, tracedSlices, sliceLen, tr)
	if err == nil {
		finish(f, pt, res)
	}
	f.close()
	if err != nil {
		return nil, err
	}
	sum := summarize(tr.spans())
	path, err := writeTrace(outDir, w.name, tr)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("  trace: %d spans (%d dropped at the buffer cap, %d without a containing op) -> %s\n",
		len(tr.spans()), tr.dropped.Load(), sum.orphans, path)

	fpp := max(1, int(math.Round(m["udpnet.frames_per_packet"].Value)))
	if err := replayLayers(w, seed, fpp, m); err != nil {
		return nil, err
	}

	// Span rows. The workload's own link is read from its spans (two
	// clients contending included); the other links keep their
	// standalone replay figure, and the kernel residuals stay what
	// replayLinks made them, the difference of two replays.
	inprocReplayUs := m["inproc.session_us"].Value
	sessUs := sum.sessMeanNs / 1e3
	switch w.link {
	case linkMem:
		m.set("xport.self_us", 0)
	case linkInproc:
		m.set("xport.self_us", sum.selfMeanNs/1e3)
		m.set("inproc.session_us", sessUs)
	case linkUDP:
		m.set("xport.self_us", sum.selfMeanNs/1e3)
		m.set("udpnet.session_us", sessUs)
	}
	m.set("trace.overhead_ratio", 1-ratio(median(pt.tokens), median(pu.tokens)))

	rows := budget(w, seed, pu, m, inprocReplayUs)
	opUs := sum.opMeanNs / 1e3
	var explained float64
	fmt.Printf("  budget of one op (mean %.3f us over %d traced ops):\n", opUs, sum.ops)
	for _, r := range rows {
		label := r.layer
		if r.part {
			label = "  of which " + label
		} else {
			explained += r.us
		}
		fmt.Printf("    %-28s %10.3f us  %5.1f%%\n", label, r.us, 100*ratio(r.us, opUs))
	}
	fmt.Printf("    %-28s %10.3f us  %5.1f%%\n", "unexplained", opUs-explained, 100*ratio(opUs-explained, opUs))
	m.set("budget.unexplained_ratio", 1-ratio(explained, opUs))
	printMetrics(m)
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("traced run did not produce %s", name)
		}
	}
	return res, nil
}

type budgetRow struct {
	layer string
	us    float64
	part  bool // a share of the row above, shown but not summed again
}

// budget spreads the traced run's mean op time over the layers, from
// two independent kinds of measurement. xport is span arithmetic: op
// span minus the Session spans inside it. Everything below a Session
// call is invisible to a decorator, so it comes from the standalone,
// single-client replays: the link walk is the same ops on a bare
// in-memory session under a flight's seq tape, and on the UDP workloads
// the udpnet+kernel row is udpnet.kernel_residual_us — what the same ops
// cost more on a loopback UDP session than on the in-memory one. The
// "of which" shares (balancer, wire dedup, frame and packet codec) are
// their per-frame and per-packet replay cost times the frames and
// packets one op sends, counted by the program. What the rows leave of the mean op is reported
// as unexplained: in-situ against standalone link time — two clients
// and the shards sharing two vCPUs, the clock reads, and on mem-cwt the
// cross-client contention single-threaded replays do not see.
func budget(w *workload, seed int64, pu *phase, m metrics, inprocReplayUs float64) []budgetRow {
	ns := func(name string) float64 { return m[name].Value / 1e3 } // a ns row in µs
	if w.link == linkMem {
		var single, batched float64
		pattern := w.pattern(seed, 0)
		for _, o := range pattern {
			if o.kind == opIncBatch {
				batched += float64(o.k)
			} else {
				single++
			}
		}
		n := float64(len(pattern))
		return []budgetRow{
			{layer: "network (traverse)", us: (single*ns("network.traverse_ns") + batched*ns("network.traverse_batch_ns_per_token")) / n},
			{layer: "counter", us: (single*ns("counter.self_ns") + batched*ns("counter.batch_self_ns_per_token")) / n},
		}
	}
	ops := float64(pu.measuredOps)
	frames := ratio(delta(pu.after, pu.before, wire.MetricClientRPCs), ops)
	dedup := budgetRow{layer: "wire dedup", us: frames * ns("wire.dedup_ns_per_frame"), part: true}
	rows := []budgetRow{
		{layer: "xport (incl. coalesce wait)", us: m["xport.self_us"].Value},
		{layer: "inproc link walk", us: inprocReplayUs},
		{layer: "balancer", us: frames * ns("balancer.step_ns"), part: true},
	}
	if w.link == linkInproc {
		return append(rows, dedup)
	}
	// A datagram shard binds the client's dedup window per packet, so on
	// this link the replayed dedup cost belongs to what UDP adds.
	packets := ratio(float64(pu.after.packets-pu.before.packets), ops)
	return append(rows,
		budgetRow{layer: "udpnet+kernel", us: m["udpnet.kernel_residual_us"].Value},
		dedup,
		budgetRow{layer: "wire codec+packet", us: frames*ns("wire.codec_ns_per_frame") + packets*ns("wire.packet_ns_per_packet"), part: true})
}
