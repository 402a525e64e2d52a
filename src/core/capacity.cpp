#include "core/capacity.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace coopnet::core {

CapacityDistribution::CapacityDistribution(std::vector<CapacityClass> classes)
    : classes_(std::move(classes)) {
  if (classes_.empty()) {
    throw std::invalid_argument("CapacityDistribution: no classes");
  }
  double total = 0.0;
  for (const auto& c : classes_) {
    if (c.rate <= 0.0) {
      throw std::invalid_argument("CapacityDistribution: rate <= 0");
    }
    if (c.fraction < 0.0) {
      throw std::invalid_argument("CapacityDistribution: fraction < 0");
    }
    total += c.fraction;
  }
  if (std::fabs(total - 1.0) > 1e-9) {
    throw std::invalid_argument(
        "CapacityDistribution: fractions do not sum to 1");
  }
}

CapacityDistribution CapacityDistribution::default_mix() {
  constexpr double kKiB = 1024.0;
  return CapacityDistribution({
      {128 * kKiB, 0.30},
      {256 * kKiB, 0.25},
      {512 * kKiB, 0.20},
      {1024 * kKiB, 0.15},
      {4096 * kKiB, 0.10},
  });
}

CapacityDistribution CapacityDistribution::homogeneous(double rate) {
  return CapacityDistribution({{rate, 1.0}});
}

std::vector<double> CapacityDistribution::sample(std::size_t n,
                                                 util::Rng& rng) const {
  if (n == 0) return {};
  // Largest-remainder apportionment of n slots across the classes so the
  // realised mix is as close to the configured fractions as possible.
  std::vector<std::size_t> counts(classes_.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const double exact = classes_[i].fraction * static_cast<double>(n);
    counts[i] = static_cast<std::size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  // Equal remainders go to the lower class index, so the counts never
  // depend on how the sort orders ties.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  for (std::size_t r = 0; assigned < n; ++r) {
    ++counts[remainders[r % remainders.size()].second];
    ++assigned;
  }

  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    out.insert(out.end(), counts[i], classes_[i].rate);
  }
  rng.shuffle(out);
  return out;
}

std::vector<double> sorted_descending(std::vector<double> capacities) {
  std::sort(capacities.begin(), capacities.end(), std::greater<>());
  return capacities;
}

bool satisfies_capacity_assumption(const std::vector<double>& capacities) {
  const double total = total_capacity(capacities);
  for (double u : capacities) {
    if (u <= 0.0) return false;
    if (u > total - u) return false;
  }
  return true;
}

double total_capacity(const std::vector<double>& capacities) {
  return std::accumulate(capacities.begin(), capacities.end(), 0.0);
}

}  // namespace coopnet::core
