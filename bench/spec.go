package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// checkSpec compares BENCHMARK.json, which the benchmark's driver
// reads, with the tables the binary emits from; any difference is an
// error. Every run starts with it (and spec_test.go runs it), so the
// file and the binary cannot drift apart unnoticed even though no gate
// of the root module runs this module's tests.
func checkSpec(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(path+": "+format, args...))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		bad("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < minSlices {
		bad("run_seconds = %d; the estimator needs at least %d one-second slices", spec.RunSeconds, minSlices)
	}
	if len(spec.Workloads) != len(workloads) {
		bad("%d workloads, the binary has %d", len(spec.Workloads), len(workloads))
	} else {
		for i, w := range workloads {
			if e := spec.Workloads[i]; e.Name != w.name || e.Why == "" || len(e.Why) > 200 {
				bad("workload %d is %+v, the binary's is %s", i, e, w.name)
			}
		}
	}
	var gated []gate
	for _, g := range gates {
		switch {
		case !g.demoted:
			gated = append(gated, g)
		case layerUnits[g.name] != g.unit:
			bad("demoted %s must be a per-layer metric with unit %q, the binary's table has %q", g.name, g.unit, layerUnits[g.name])
		case g.bound > 0.10:
			bad("%s: a timing bound is never widened past 10%%, got %v", g.name, g.bound)
		}
	}
	hasSetup := false
	if len(spec.EndToEnd) != len(gated) {
		bad("%d end_to_end metrics, %d gated in the binary", len(spec.EndToEnd), len(gated))
	} else {
		for i, g := range gated {
			better := "lower"
			if g.higher {
				better = "higher"
			}
			e := spec.EndToEnd[i]
			if e.Name != g.name || e.Unit != g.unit || e.Better != better || e.Bound != g.bound {
				bad("end_to_end %d is %+v, the binary's is %+v", i, e, g)
			}
			if e.Bound > 0.25 {
				bad("%s: bound %v above the 0.25 the contract allows", e.Name, e.Bound)
			}
			hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
		}
	}
	if !hasSetup {
		bad("end_to_end must include setup_s (s, lower)")
	}
	seen := map[string]bool{}
	for _, e := range spec.PerLayer {
		if unit, ok := layerUnits[e.Name]; !ok || unit != e.Unit {
			bad("per_layer %s (%s): the binary emits unit %q (known=%v)", e.Name, e.Unit, unit, ok)
		}
		if e.Better != "lower" && e.Better != "higher" {
			bad("per_layer %s: better = %q", e.Name, e.Better)
		}
		seen[e.Name] = true
	}
	for name := range layerUnits {
		if !seen[name] {
			bad("the binary emits %s, the per_layer list lacks it", name)
		}
	}
	return errors.Join(errs...)
}
