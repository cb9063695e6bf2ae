// Command bench is the repository's wall-clock benchmark: four
// closed-loop workloads, six end-to-end metrics estimated as medians
// over one-second slices, and a traced run that budgets an op's time
// over the layers from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named numbers.
type metrics map[string]metric

// layerUnits lists every per-layer metric a traced run emits, with its
// unit; BENCHMARK.json's per_layer list is this table (checkSpec).
var layerUnits = map[string]string{
	"balancer.step_ns":                    "ns",
	"network.traverse_ns":                 "ns",
	"network.traverse_batch_ns_per_token": "ns",
	"counter.self_ns":                     "ns",
	"counter.batch_self_ns_per_token":     "ns",
	"xport.self_us":                       "us",
	"xport.rpcs_per_token":                "ratio",
	"xport.flights_per_op":                "ratio",
	"xport.tokens_per_flight":             "ratio",
	"xport.retries_per_flight":            "ratio",
	"xport.pool_dials":                    "count",
	"xport.coalesce_wait_p99_us":          "us",
	"xport.pool_checkout_p99_us":          "us",
	"xport.attempt_p99_us":                "us",
	"wire.codec_ns_per_frame":             "ns",
	"wire.packet_ns_per_packet":           "ns",
	"wire.dedup_ns_per_frame":             "ns",
	"wire.dedup_replays":                  "count",
	"inproc.session_us":                   "us",
	"udpnet.session_us":                   "us",
	"udpnet.kernel_residual_us":           "us",
	"udpnet.packets_per_token":            "ratio",
	"udpnet.frames_per_packet":            "ratio",
	"udpnet.retransmits_per_packet":       "ratio",
	"udpnet.shard_recv_batch_size":        "ratio",
	"udpnet.shard_send_batch_size":        "ratio",
	"udpnet.shard_drops":                  "count",
	"tcpnet.session_us":                   "us",
	"tcpnet.kernel_residual_us":           "us",
	"ctlplane.observe_ns":                 "ns",
	"ctlplane.gather_us":                  "us",
	"proc.sys_cpu_share":                  "ratio",
	"proc.ctx_switches_per_token":         "ratio",
	"proc.gc_cycles":                      "count",
	"proc.gc_pause_ms":                    "ms",
	"proc.heap_inuse_mb":                  "MB",
	"run.slice_iqr_ratio":                 "ratio",
	"run.tokens_per_s_whole":              "tokens/s",
	"run.op_p99_us_whole":                 "us",
	"run.op_max_us":                       "us",
	"trace.overhead_ratio":                "ratio",
	// Demoted end-to-end timing metrics (see gates), from the traced
	// run's untraced phase.
	"tokens_per_s":             "tokens/s",
	"op_p50_us":                "us",
	"op_p99_us":                "us",
	"cpu_us_per_token":         "us/token",
	"budget.unexplained_ratio": "ratio",
}

// set records a per-layer metric under its table unit; a name missing
// from the table is a programming error.
func (m metrics) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in layerUnits")
	}
	m[name] = metric{v, unit}
}

// result is what one run of one workload reports; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// minSlices is the fewest one-second slices a run may measure: a median
// over fewer is not the estimator BENCHMARK.json's numbers are defined by.
const minSlices = 30

func main() {
	runtime.GOMAXPROCS(2) // the guest has two vCPUs; pinned so a bigger host reads the same
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed    = flag.Int64("seed", 1, "orders each client's repeating op pattern")
		seconds = flag.Int("seconds", minSlices, "one-second slices to measure (the benchmark's driver passes BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/trace-<workload>.json")
		agree   = flag.Int("agree", 0, "N > 0: run two alternating sets of N full runs and print their agreement")
	)
	flag.Parse()
	if *seconds < minSlices || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("-seconds %d -trace %d: need at least %d seconds and trace 0 or 1", *seconds, *trace, minSlices))
	}
	if err := checkSpec("BENCHMARK.json"); err != nil {
		fatal(err)
	}
	if *agree > 0 {
		if err := runAgree(*agree, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	printHost(*seed)
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []*workload{w}
	}
	ok := true
	for _, w := range todo {
		modes := []int{*trace}
		if *name == "" {
			modes = []int{0, 1}
		}
		for _, mode := range modes {
			run := runEndToEnd
			if mode == 1 {
				run = runTraced
			}
			res, err := run(w, *seed, *seconds)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
			ok = ok && res.Correct && res.Failed == 0
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// outDir is where trace dumps go, relative to the repository root
// run.sh starts the binary in.
const outDir = "bench/out"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printHost(seed int64) {
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d %s %s/%s kernel=%s udp-syscalls=%s seed=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel, mmsgBuild, seed)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// allocFloor is added to allocs_per_token so a workload the program
// serves without allocating (mem-cwt) reports a finite, comparable
// number — one allocation per thousand tokens — instead of a ratio of
// background runtime allocations to a huge token count.
const allocFloor = 0.001

// timing computes the four timing metrics of a phase: per-slice
// figures, median over slices.
func timing(p *phase) map[string]float64 {
	return map[string]float64{
		"tokens_per_s":     median(p.tokens) / p.sliceLen.Seconds(),
		"op_p50_us":        median(p.p50),
		"op_p99_us":        median(p.p99),
		"cpu_us_per_token": median(p.cpu),
	}
}

// endToEnd computes the six end-to-end metrics of a phase that followed
// the cold set-up cycles setup.
func endToEnd(p *phase, setup []float64) metrics {
	values := timing(p)
	values["allocs_per_token"] = ratio(float64(p.allocs), float64(p.measuredTokens)) + allocFloor
	values["setup_s"] = slices.Min(setup)
	m := metrics{}
	for _, g := range gates {
		m[g.name] = metric{values[g.name], g.unit}
	}
	return m
}

// finish closes the books of a phase on fleet f: the exactness check
// and the contract's attempted/failed/correct fields.
func finish(f *fleet, p *phase, res *result) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	if err := exact(f, p.net); err != nil {
		fmt.Printf("  EXACTNESS FAILED: %v\n", err)
		res.Failed++
		res.Correct = false
	}
	if p.failed > 0 {
		res.Correct = false
	}
}

// runEndToEnd is the untraced run: cold set-up cycles first, then the
// measured fleet. Every gated number comes from here. The report prints
// all six end-to-end metrics; the result line carries the gated ones,
// which is BENCHMARK.json's end_to_end list.
func runEndToEnd(w *workload, seed int64, seconds int) (*result, error) {
	fmt.Printf("workload %s (untraced, %d slices of %v, %d clients): %s\n", w.name, seconds, sliceLen, w.clients, w.why)
	setup, err := coldSetup(w)
	if err != nil {
		return nil, fmt.Errorf("cold set-up: %w", err)
	}
	f, err := w.start(nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	p, err := runPhase(w, f, seed, seconds, sliceLen, nil)
	if err != nil {
		return nil, err
	}
	all := endToEnd(p, setup)
	res := &result{Correct: true, Metrics: metrics{}}
	for _, g := range gates {
		if !g.demoted {
			res.Metrics[g.name] = all[g.name]
		}
	}
	finish(f, p, res)
	printMetrics(all)
	fmt.Printf("  samples: %d latency samples/slice at least (p99 needs 1000), %d setup cycles (median %.6g s), %d ops, %d tokens\n",
		p.minSamples(), len(setup), median(setup), p.measuredOps, p.measuredTokens)
	extra := metrics{}
	countMetrics(p, extra)
	printMetrics(extra)
	return res, nil
}
