// Peer handles over the struct-of-arrays store.
//
// `Peer` used to be the fat struct holding all per-peer state; that state
// now lives in PeerStore's parallel arrays (sim/peer_store.h) and `Peer`
// is a 16-byte {store, id} handle. Accessors carry the old field names, so
// call sites read as before with parentheses appended (`p.busy_slots()`),
// and the mutable handle returns references (`++p.busy_slots()`).
// `ConstPeer` is the read-only flavor; a `Peer` converts to it implicitly.
//
// Handles are values: copy them freely, but remember they alias store
// state -- two handles with the same id see the same peer. A handle does
// not witness incarnation (see PeerStore epochs); code that may outlive a
// churn must capture `epoch()` alongside the id.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "sim/peer_store.h"
#include "sim/piece_set.h"
#include "sim/types.h"

namespace coopnet::sim {

/// Read-only view of a peer's neighbor list (a slice of the store's CSR
/// adjacency array).
class NeighborRange {
 public:
  NeighborRange(const PeerId* begin, const PeerId* end)
      : begin_(begin), end_(end) {}
  const PeerId* begin() const { return begin_; }
  const PeerId* end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  PeerId operator[](std::size_t i) const { return begin_[i]; }

 private:
  const PeerId* begin_;
  const PeerId* end_;
};

/// Lightweight handle to one peer's state inside a PeerStore. StoreT is
/// PeerStore (mutable handle, accessors return references) or
/// `const PeerStore` (read-only handle, accessors return values/const
/// references). Members that mutate only compile on the mutable flavor.
template <typename StoreT>
class PeerHandle {
 public:
  PeerHandle(StoreT* store, PeerId id) : store_(store), id_(id) {}

  /// Peer -> ConstPeer conversion.
  template <typename U,
            typename = std::enable_if_t<
                std::is_const_v<StoreT> && !std::is_const_v<U> &&
                std::is_same_v<std::remove_const_t<StoreT>, U>>>
  PeerHandle(const PeerHandle<U>& other)  // NOLINT(runtime/explicit)
      : store_(other.store()), id_(other.id()) {}

  PeerId id() const { return id_; }
  StoreT* store() const { return store_; }

  // --- identity / role ---------------------------------------------------
  decltype(auto) kind() const { return store_->kind(id_); }
  PeerState state() const { return store_->state(id_); }
  /// The only state-mutation path (keeps the store's active registry
  /// exact); there is deliberately no `state() = ...`.
  void set_state(PeerState next) const { store_->set_state(id_, next); }
  decltype(auto) collusion_group() const {
    return store_->collusion_group(id_);
  }
  std::uint32_t epoch() const { return store_->epoch(id_); }
  void bump_epoch() const { store_->bump_epoch(id_); }

  // --- bandwidth / slots ---------------------------------------------------
  decltype(auto) capacity() const { return store_->capacity(id_); }
  decltype(auto) upload_slots() const { return store_->upload_slots(id_); }
  decltype(auto) busy_slots() const { return store_->busy_slots(id_); }
  decltype(auto) incoming_count() const {
    return store_->incoming_count(id_);
  }

  // --- piece sets ---------------------------------------------------------
  decltype(auto) pieces() const { return store_->pieces(id_); }
  decltype(auto) locked() const { return store_->locked(id_); }
  decltype(auto) pending() const { return store_->pending(id_); }
  decltype(auto) unavailable() const { return store_->unavailable(id_); }
  decltype(auto) transferable() const { return store_->transferable(id_); }

  /// Call after every change to unavailable() (see PeerStore::hungry).
  void refresh_hungry() const { store_->refresh_hungry(id_); }

  NeighborRange neighbors() const {
    return {store_->neighbors_begin(id_), store_->neighbors_end(id_)};
  }

  // --- lifetime bookkeeping -------------------------------------------
  decltype(auto) arrival_time() const { return store_->arrival_time(id_); }
  decltype(auto) bootstrap_time() const {
    return store_->bootstrap_time(id_);
  }
  decltype(auto) finish_time() const { return store_->finish_time(id_); }

  // --- byte accounting --------------------------------------------------
  // Reads by value; writes through credit_* so the store's population
  // aggregates stay exact.
  Bytes uploaded_bytes() const { return store_->uploaded_bytes(id_); }
  Bytes downloaded_usable_bytes() const {
    return store_->downloaded_usable_bytes(id_);
  }
  Bytes downloaded_raw_bytes() const {
    return store_->downloaded_raw_bytes(id_);
  }
  Bytes usable_from_leechers_bytes() const {
    return store_->usable_from_leechers_bytes(id_);
  }
  void credit_uploaded(Bytes b) const { store_->credit_uploaded(id_, b); }
  void credit_downloaded_raw(Bytes b) const {
    store_->credit_downloaded_raw(id_, b);
  }
  void credit_downloaded_usable(Bytes b) const {
    store_->credit_downloaded_usable(id_, b);
  }
  void credit_usable_from_leechers(Bytes b) const {
    store_->credit_usable_from_leechers(id_, b);
  }

  // --- exchange ledger ----------------------------------------------------
  const std::vector<EdgeCounters>& ledger() const {
    return store_->ledger(id_);
  }
  EdgeCounters& edge(PeerId other) const { return store_->edge(id_, other); }
  void end_round() const { store_->end_round(id_); }

  // --- predicates ---------------------------------------------------------
  bool is_seeder() const { return kind() == PeerKind::kSeeder; }
  bool is_free_rider() const { return kind() == PeerKind::kFreeRider; }
  bool is_strategic() const { return kind() == PeerKind::kStrategic; }
  bool active() const { return state() == PeerState::kActive; }
  bool finished() const { return finish_time() >= 0.0; }
  bool bootstrapped() const { return bootstrap_time() >= 0.0; }
  int free_slots() const { return upload_slots() - busy_slots(); }

  /// The u_i / d_i fairness ratio of Section V; -1 when undefined (no
  /// usable downloads yet).
  double fairness_ratio() const {
    const Bytes down = downloaded_usable_bytes();
    if (down <= 0) return -1.0;
    return static_cast<double>(uploaded_bytes()) / static_cast<double>(down);
  }

 private:
  StoreT* store_;
  PeerId id_;
};

using Peer = PeerHandle<PeerStore>;
using ConstPeer = PeerHandle<const PeerStore>;

/// Iterable view over every peer slot of a store, in ascending id order,
/// yielding handles. `for (auto p : swarm.peers())` replaces the old
/// iteration over the fat-object vector.
template <typename StoreT>
class PeerRange {
 public:
  class iterator {
   public:
    iterator(StoreT* store, PeerId id) : store_(store), id_(id) {}
    PeerHandle<StoreT> operator*() const { return {store_, id_}; }
    iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return id_ != o.id_; }
    bool operator==(const iterator& o) const { return id_ == o.id_; }

   private:
    StoreT* store_;
    PeerId id_;
  };

  explicit PeerRange(StoreT* store) : store_(store) {}
  iterator begin() const { return {store_, 0}; }
  iterator end() const {
    return {store_, static_cast<PeerId>(store_->size())};
  }
  std::size_t size() const { return store_->size(); }

 private:
  StoreT* store_;
};

}  // namespace coopnet::sim
