// Package experiments contains the drivers that regenerate the evaluation
// artifacts E1..E15 (the suite index lives in Suite and is tabulated in the
// repository README). Each driver returns a Table that cmd/gatherbench
// prints and that the root bench_test.go executes as a benchmark, so every
// recorded number can be reproduced with either tool.
//
// The multi-run experiments (E5, E7, E9, E10, E11, E13, E14, E15) execute
// their cell grids on the parallel engine through the resumable sweep layer:
// Config wires worker counts, on-disk checkpointing (SweepDir/Resume),
// adaptive seed scheduling (AdaptiveCI) and lease-based multi-process
// sharding (ShardOwner/LeaseTTL) into every one of them uniformly; AdaptiveCI
// and ShardOwner compose, so a fleet can drain one adaptive sweep
// cooperatively. Tables are byte-identical across worker counts, resumes and
// sharded fleets.
//
// E13-E15 are the robustness suite on top of internal/adversary: E13 crosses
// every adversary strategy with workload shapes, E14 sweeps the crash-stop
// count, and E15 charts the sensor-noise and motion-truncation magnitudes at
// which gathering degrades. The single-adversary experiments additionally
// accept a Config.Adversary spec override ("greedy-stall", "crash(2)",
// "fair+noise=0.1") so any of them can be re-run under hostile scheduling or
// injected faults.
package experiments
