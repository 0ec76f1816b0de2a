package main

// recorded holds each workload's JSONL sha256 and simulated-instruction
// total at the default sizes, for seed 42 and for the held-out seed 7.
// warm-sweep has no entry of its own: its rows must be cold-sweep's.
var recorded = map[expectKey]expectation{
	{coldSweep, 42}:     {"5a827392f736187ef175a6acd8dd3186ee76f2359af225957de50df92c349448", 878137728},
	{coldSweep, 7}:      {"7dbb46cb92f538c0e4125ad2c52d2a3160fe5a466c30919410dade7333c1d83c", 907912416},
	{geometrySweep, 42}: {"6b7b03f2dfe853b50baf48f74040c45e68b7c838e714340c76ea468f6661f04b", 1525834368},
	{geometrySweep, 7}:  {"22fb601f61b0cbc639ed28f285334bb6ac984c7858353ea430d29c68430d913e", 1599730944},
}
