#include "exp/schedule.h"

#include <algorithm>
#include <exception>
#include <future>
#include <sstream>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace coopnet::exp {

std::uint64_t cell_seed(std::uint64_t base_seed, std::uint64_t cell_index) {
  // SplitMix64 adds a fixed gamma to its state each step, so seeding the
  // state at base + index * gamma and mixing once yields exactly stream
  // element `cell_index` without walking the stream.
  std::uint64_t state = base_seed + cell_index * 0x9e3779b97f4a7c15ULL;
  return util::splitmix64(state);
}

std::size_t default_jobs() { return util::ThreadPool::default_workers(); }

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
  util::ThreadPool pool(std::min(jobs, n));
  std::vector<std::future<void>> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending.push_back(pool.submit([&body, i] { body(i); }));
  }
  // Drain every future so all cells finish (or fail) before the first
  // failing cell's exception -- in index order -- is rethrown.
  std::exception_ptr first_error;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace coopnet::exp
