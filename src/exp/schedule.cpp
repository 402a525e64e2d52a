#include "exp/schedule.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace coopnet::exp {

std::uint64_t cell_seed(std::uint64_t base_seed, std::uint64_t cell_index) {
  // SplitMix64 adds a fixed gamma to its state each step, so seeding the
  // state at base + index * gamma and mixing once yields exactly stream
  // element `cell_index` without walking the stream.
  std::uint64_t state = base_seed + cell_index * 0x9e3779b97f4a7c15ULL;
  return util::splitmix64(state);
}

std::size_t default_jobs() {
  // The standard lets hardware_concurrency() return 0 when it is unknown.
  return std::max(1u, std::thread::hardware_concurrency());
}

double SweepTiming::throughput() const {
  return wall_seconds > 0.0 ? static_cast<double>(cells) / wall_seconds
                            : 0.0;
}

std::string SweepTiming::to_string() const {
  std::ostringstream os;
  os.precision(3);
  os << cells << (cells == 1 ? " run in " : " runs in ") << wall_seconds
     << " s (" << throughput() << " runs/s, jobs=" << jobs << ")";
  if (failed != 0 || skipped != 0) {
    os << ", " << completed << " ok / " << failed << " failed";
    if (skipped != 0) os << " / " << skipped << " skipped";
  }
  return os.str();
}

void for_each_cell(std::size_t n, std::size_t jobs,
                   const std::function<void(std::size_t)>& body) {
  if (jobs == 0) jobs = default_jobs();
  if (jobs == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Each worker claims the next unclaimed index until none is left, so
  // every cell runs exactly once and a throwing cell stops no other. A
  // cell's exception lands in its own slot; after the join the first one
  // in index order is rethrown.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on scope exit, also when starting a later one throws.
    std::vector<std::jthread> workers;
    for (std::size_t w = std::min(jobs, n); w > 0; --w) {
      workers.emplace_back(work);
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace coopnet::exp
