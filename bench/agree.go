package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// gate is one of the six end-to-end metrics: the direction that is
// better and how far it may worsen before a change is a regression.
// The gated ones are BENCHMARK.json's end_to_end list; a timing metric
// that could not hold its bound against the host's noise (AGREEMENT.md)
// is demoted — same name, same definition, reported by the traced run
// in the per_layer list, never gated. checkSpec keeps this table and
// the file identical.
type gate struct {
	name    string
	unit    string
	higher  bool
	bound   float64
	demoted bool
}

var gates = []gate{
	{name: "tokens_per_s", unit: "tokens/s", higher: true, bound: 0.10, demoted: true},
	{name: "op_p50_us", unit: "us", bound: 0.10, demoted: true},
	{name: "op_p99_us", unit: "us", bound: 0.10, demoted: true},
	{name: "cpu_us_per_token", unit: "us/token", bound: 0.10, demoted: true},
	{name: "allocs_per_token", unit: "allocs/token", bound: 0.02},
	{name: "setup_s", unit: "s", bound: 0.10},
}

// worse is how far b is worse than a, as a share of a (negative: better).
func (g gate) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if g.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree measures the benchmark against itself: two sets of n full
// runs of the same binary, alternating, each run a fresh process with
// its own seed — the acceptance procedure the benchmark's driver
// applies — and prints per workload × metric both medians, how much
// worse the second is, both run-to-run spreads (IQR/median), the bound,
// and a verdict. One rule for every metric: FAIL when the second median
// is worse than the first by more than the bound; otherwise UNRESOLVED
// when either spread is wider than the bound (the bound is finer than
// the metric's own noise, so "no regression" cannot be told from one);
// otherwise PASS. Demoted metrics are judged the same way, so the table
// keeps showing why they are not gated; only a gated metric's FAIL
// fails the command.
func runAgree(n, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// sets[set][workload][metric] = one value per run
	var sets [2]map[string]map[string][]float64
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			sets[s][w.name] = map[string][]float64{}
		}
	}
	started := time.Now()
	for i := 0; i < n; i++ {
		for s := range sets {
			seed := 2*i + s + 1
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "agree: set %c run %d/%d %s seed %d\n", 'A'+s, i+1, n, w.name, seed)
				res, err := runChild(exe, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: %d of %d ops failed (correct=%v)", w.name, seed, res.Failed, res.Attempted, res.Correct)
				}
				for name, m := range res.Metrics {
					sets[s][w.name][name] = append(sets[s][w.name][name], m.Value)
				}
			}
		}
	}

	fmt.Printf("# Agreement of the benchmark with itself\n\n")
	fmt.Printf("`bash bench/run.sh -agree %d -seconds %d`: two sets (A, B) of %d full runs of the same binary, alternating A1 B1 A2 B2 …, every run a fresh process with its own seed; %s, %s, GOMAXPROCS=%d of %d CPUs; took %s.\n\n",
		n, seconds, n, runtime.Version(), time.Now().UTC().Format("2006-01-02"), runtime.GOMAXPROCS(0), runtime.NumCPU(), time.Since(started).Round(time.Second))
	fmt.Printf("`worse` is how far B's median is worse than A's, `spread` a set's interquartile range over its median (Python's `statistics.quantiles(n=4)`). FAIL: `worse` > bound. UNRESOLVED: a spread > bound. PASS otherwise, `steady` when both spreads are under a third of the bound. `(not gated)` marks a demoted timing metric, judged against the 10 %% it would have to hold.\n\n")
	fmt.Printf("| workload | metric | unit | median A | median B | worse | spread A | spread B | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n")
	var failed, unresolved, gated int
	for _, w := range workloads {
		for _, g := range gates {
			a, b := sets[0][w.name][g.name], sets[1][w.name][g.name]
			ma, mb := median(a), median(b)
			worse, spread := g.worse(ma, mb), max(iqrRatio(a), iqrRatio(b))
			verdict := "PASS"
			switch {
			case worse > g.bound:
				verdict = "FAIL"
			case spread > g.bound:
				verdict = "UNRESOLVED"
			case spread < g.bound/3:
				verdict = "PASS steady"
			}
			if !g.demoted {
				gated++
				switch verdict {
				case "FAIL":
					failed++
				case "UNRESOLVED":
					unresolved++
				}
			} else {
				verdict += " (not gated)"
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, g.name, g.unit, ma, mb, 100*worse, 100*iqrRatio(a), 100*iqrRatio(b), 100*g.bound, verdict)
		}
	}
	fmt.Printf("\nOf %d gated workload × metric pairs, %d failed and %d are unresolved.\n", gated, failed, unresolved)
	if failed > 0 {
		return fmt.Errorf("%d gated workload × metric pairs disagree beyond their bound", failed)
	}
	return nil
}

// runChild runs one workload in a fresh process. The result line it
// prints last carries the gated metrics; the demoted ones are read from
// the report above it, which prints all six by name.
func runChild(exe, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(string(line))
		if len(f) != 3 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		for _, g := range gates {
			if g.demoted && g.name == f[0] {
				res.Metrics[g.name] = metric{v, g.unit}
			}
		}
	}
	return &res, nil
}
