package shard

// StripeOf maps a process id to one of `shards` stripes — the routing
// discipline every sharded layer in the repository shares (the in-process
// shard.Counter and xport.ShardedCounter, the fleet client of every
// distributed deployment), so a pid lands on the same stripe index at
// every layer.
//
// Fibonacci hashing spreads dense pid ranges (0,1,2,... as issued by
// benchmark harnesses) uniformly before reduction, so neighbouring pids do
// not pile onto neighbouring stripes. shards must be >= 1.
func StripeOf(pid, shards int) int {
	h := uint64(pid) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(shards))
}
