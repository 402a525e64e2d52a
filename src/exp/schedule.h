// Parallel experiment scheduling: the seed schedule, the per-sweep timing
// line, and the one fan-out (for_each_cell) that every sweep runs its
// independent (scenario, seed) cells through.
//
// Determinism contract: a cell is a fully-specified SwarmConfig; the swarm
// constructs its own RNG from config.seed, touches no shared mutable state,
// and its result goes into the pre-sized slot matching its index. Workers
// therefore only change *when* a cell runs, never *what* it computes or
// *where* its result lands -- `jobs = N` output is bit-identical to
// `jobs = 1` (enforced by tests/exp/parallel_determinism_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace coopnet::exp {

/// Stable per-cell seed: output `cell_index` of the SplitMix64 stream
/// seeded with `base_seed`. O(1) per cell (SplitMix64's state advances by
/// a fixed increment, so the stream can be entered at any position), and
/// decorrelated across both cells and nearby base seeds.
std::uint64_t cell_seed(std::uint64_t base_seed, std::uint64_t cell_index);

/// Default worker count for --jobs: the hardware concurrency (>= 1).
std::size_t default_jobs();

/// Wall-clock accounting for one sweep, printed by the bench binaries so
/// parallel speedup is visible next to the tables it produced.
struct SweepTiming {
  double wall_seconds = 0.0;
  std::size_t cells = 0;
  std::size_t jobs = 1;
  /// Outcome counts. `completed` cells produced a report; `failed` threw
  /// or were cancelled by a watchdog; `skipped` were resumed from a
  /// journal or never started. Filled for every run_cells (supervise.h)
  /// sweep, degraded or not.
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;

  /// Cells completed per wall-clock second (0 if no time elapsed).
  double throughput() const;
  /// e.g. "42 runs in 12.3 s (3.41 runs/s, jobs=8)". Degraded sweeps
  /// (failed or skipped cells) append ", 40 ok / 2 failed"; fully
  /// successful sweeps render exactly as before.
  std::string to_string() const;
};

/// Runs `body(i)` once for every i in [0, n). `jobs == 1` or `n <= 1` runs
/// inline on the calling thread (no threads are created); otherwise
/// min(jobs, n) threads claim the indices in turn. `jobs == 0` means
/// default_jobs(). A body that writes only slot i of a pre-sized vector
/// needs no locking. If bodies throw, the first exception in index order
/// is rethrown once the started cells have finished (the inline loop
/// starts no cell after a throwing one).
void for_each_cell(std::size_t n, std::size_t jobs,
                   const std::function<void(std::size_t)>& body);

}  // namespace coopnet::exp
