package main

// workload is one traffic mix and system configuration the benchmark runs.
// Every workload shares the replay/time-shift load generator; they differ in
// what the block contains and what is attached to the pipeline.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	ipfix        bool    // IPFIX (v4+v6 templates) instead of NetFlow v5
	ipv6Fraction float64 // share of dual-stacked ASes' flows sourced from IPv6
	hotFraction  float64 // share of flows sourced from one elephant /24
	scanPerFlow  float64 // spoofed /32 scan records per generated record
	governed     bool    // governor (per-IP budget) + sketch tier
	cleanWarm    int     // leading warm-up replays that leave the scan out
	cold         bool    // no warm-up: the pass starts from the two /0 roots
	observed     bool    // journal, timeline, exporter health, profiler, tracer, scraper
}

var workloads = []workload{
	{
		name: "steady-v5",
		why:  "converged partition over NetFlow v5: the production regime, per-record work is decode + trie descent + counter bump",
	},
	{
		name:         "steady-ipfix-dual",
		why:          "30% IPv6 over IPFIX: the other wire codec and 128-bit descent to /48; v4-only or v5-only fast paths must not move it",
		ipfix:        true,
		ipv6Fraction: 0.3,
	},
	{
		name:        "hot-prefix-v5",
		why:         "45% of flows from one /24: exercises what per-/24 batching, a last-match cache or shard imbalance would move",
		hotFraction: 0.45,
	},
	{
		name:        "spoofed-scan-v5",
		why:         "random-/32 scan flood at the legitimate rate, governor + sketch tier engaged: the flood is absorbed by the sketch, not the trie",
		scanPerFlow: 1,
		governed:    true,
		// The flood starts against a converged partition, as in
		// examples/spoofed-scan: under a flood from the first record the
		// governed engine never classifies anything, and there would be no
		// verdicts to protect.
		cleanWarm: 3,
	},
	{
		name: "cold-start-v5",
		why:  "no warm-up, from the two /0 roots: split cascades and per-IP redistribution dominate; guards convergence speed",
		cold: true,
	},
	{
		name:     "steady-observed-v5",
		why:      "steady-v5 with every observer an operator attaches plus a concurrent scraper: the summed observability and reader cost",
		observed: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape sizes one run. The benchmark measures fixed work, not fixed wall
// time, so that counts (allocations, cycles, verdicts) repeat exactly.
type shape struct {
	flowsPerMin int // generated flows per virtual minute
	blockMin    int // virtual minutes per block
	warmBlocks  int // block replays in the warm-up (ignored by cold workloads)
	passBlocks  int // block replays in one timed pass
	trials      int // independent set-up + pass repetitions in an untraced run
}

// ipStateBudget is the governed workload's per-IP cap: three minutes of
// generated flows. Cold convergence peaks at about two minutes' worth of
// per-IP entries; a cap that degrades the governor there freezes the
// partition at a handful of ranges for good (splits are deferred while
// degraded, and without splits the entries never drain). The flood is sized
// against this cap (workload.scanPerFlow) so that it does trip the governor.
func (sh shape) ipStateBudget() int { return 3 * sh.flowsPerMin }

// highWater is the queue depth above which the generator yields. It stays
// below one virtual minute of records so that at most one stage-2 cycle can
// run between two polls of the engine's cycle counter.
func (sh shape) highWater() int {
	if hw := sh.flowsPerMin / 2; hw < queueCap/2 {
		return hw
	}
	return queueCap / 2
}
