// Package sweep is the persistent, resumable and shardable layer over the
// batch engine. It has one entry point, Run, over three building blocks:
//
//   - Store: an append-only JSONL checkpoint of completed cells. Every
//     engine.CellResult streams to disk as its worker finishes, and on
//     restart the completed-cell set is loaded so only the missing cells
//     re-run — with tables byte-identical to an uninterrupted run. See
//     FORMAT.md in this directory for the on-disk record and lease formats.
//   - Adaptive seed scheduling (Options.Adaptive): each cell group (cells
//     that differ only in their seeds) keeps receiving derived seed replicas
//     until the 95% confidence interval half-width of its event count is
//     tight enough, or a cap is reached. The zero value is a fixed grid.
//   - Sharding (Options.Shard): multi-process (or multi-host, over a shared
//     filesystem or a gatherd coordinator) sweeps. Cooperative workers claim
//     cell groups through leases in the store's backend (on a filesystem,
//     lease generation files with owner id and expiry timestamp, each
//     published by exclusive create), heartbeat them while running, skip
//     groups completed in the store or freshly leased by peers, and reclaim
//     expired leases so a killed worker's cells re-run. Leases are the only
//     way to split a sweep.
//
// Run picks one of two loops from its input, never from a flag. The round
// loop serves solo runs: one round of the input cells, then one round of
// extra replicas per still-open group at a time; a fixed grid is exactly
// one round. The claim loop serves every fleet (a Shard.Owner and a Store):
// any worker can claim a group, run its next block of replicas, and
// re-evaluate the stopping rule against the merged cross-worker history. Both loops walk a group's seed trajectory with the
// same cellGroup.eval — a deterministic function of the per-replica results
// the run knows, its own over the store's — and lay out their results in the
// same round order. The store is the only copy of that state; a running
// sweep reports its open adaptive groups live on /progress. Cooperating
// workers drain the sweep, and every one of them returns the complete
// result set in the round loop's order, byte-identical to a single-process
// run.
//
// Correctness never depends on lease arbitration: records are keyed by the
// cell's full identity and are bit-identical no matter which worker produced
// them, so a lost lease race can at worst duplicate work.
package sweep
