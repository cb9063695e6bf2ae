package main

import "testing"

// BENCHMARK.json is what the benchmark's driver reads; the tables in
// this package are what the binary emits. They must say the same thing.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	if err := checkSpec("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
}
