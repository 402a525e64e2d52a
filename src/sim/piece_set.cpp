#include "sim/piece_set.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace coopnet::sim {

PieceSet::PieceSet(PieceId size) : size_(size) {
  words_.assign((static_cast<std::size_t>(size) + 63) / 64, 0);
}

void PieceSet::check(PieceId p) const {
  if (p >= size_) throw std::out_of_range("PieceSet: piece id out of range");
}

bool PieceSet::has(PieceId p) const {
  check(p);
  return (words_[p / 64] >> (p % 64)) & 1u;
}

bool PieceSet::add(PieceId p) {
  check(p);
  const std::uint64_t mask = std::uint64_t{1} << (p % 64);
  if (words_[p / 64] & mask) return false;
  words_[p / 64] |= mask;
  ++count_;
  return true;
}

bool PieceSet::remove(PieceId p) {
  check(p);
  const std::uint64_t mask = std::uint64_t{1} << (p % 64);
  if (!(words_[p / 64] & mask)) return false;
  words_[p / 64] &= ~mask;
  --count_;
  return true;
}

void PieceSet::fill() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  // Mask off the bits beyond size_ in the last word.
  const PieceId tail = size_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
  count_ = size_;
}

void PieceSet::clear() {
  for (auto& w : words_) w = 0;
  count_ = 0;
}

bool PieceSet::assign_words(const void* raw) {
  if (words_.empty()) return true;
  std::memcpy(words_.data(), raw, words_.size() * sizeof(std::uint64_t));
  const PieceId tail = size_ % 64;
  if (tail != 0 && (words_.back() >> tail) != 0) {
    clear();
    return false;
  }
  std::size_t count = 0;
  for (const std::uint64_t w : words_) count += std::popcount(w);
  count_ = static_cast<PieceId>(count);
  return true;
}

bool PieceSet::can_offer(const PieceSet& excluded) const {
  if (excluded.size_ != size_) {
    throw std::invalid_argument("PieceSet::can_offer: size mismatch");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] & ~excluded.words_[w]) return true;
  }
  return false;
}

bool PieceSet::intersects(const PieceSet& other) const {
  if (other.size_ != size_) {
    throw std::invalid_argument("PieceSet::intersects: size mismatch");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] & other.words_[w]) return true;
  }
  return false;
}

void PieceSet::assign_union(const PieceSet& a, const PieceSet& b) {
  if (a.size_ != size_ || b.size_ != size_) {
    throw std::invalid_argument("PieceSet::assign_union: size mismatch");
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] = a.words_[w] | b.words_[w];
    count += std::popcount(words_[w]);
  }
  count_ = static_cast<PieceId>(count);
}

}  // namespace coopnet::sim
