#include "sim/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/algorithm.h"
#include "sim/event_kinds.h"
#include "sim/swarm.h"
#include "util/byteio.h"
#include "util/crc32.h"

namespace coopnet::sim {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'O', 'P', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kFormatVersion = 2;

// --- canonical config rendering ------------------------------------------

/// Doubles are rendered as their IEEE-754 bit pattern: the fingerprint
/// must mean bit-equality, not printf-rounded equality.
void put_double_field(std::string& out, const char* key, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%016llx\n", key,
                static_cast<unsigned long long>(bits));
  out += buf;
}

void put_u64_field(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

void put_i64_field(std::string& out, const char* key, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%lld\n", key,
                static_cast<long long>(v));
  out += buf;
}

void put_bool_field(std::string& out, const char* key, bool v) {
  out += key;
  out += v ? "=1\n" : "=0\n";
}

// --- section payload helpers ---------------------------------------------

void save_tag(util::ByteSink& sink, const EventTag& tag) {
  sink.put_u32(tag.kind);
  sink.put_u32(tag.a);
  sink.put_u32(tag.b);
  sink.put_u32(tag.c);
  sink.put_u32(tag.d);
  sink.put_u32(tag.e);
  sink.put_u32(tag.f);
  sink.put_u32(tag.g);
  sink.put_double(tag.x);
  sink.put_double(tag.y);
  sink.put_i64(tag.n);
}

EventTag load_tag(util::ByteSource& src) {
  EventTag tag;
  tag.kind = src.get_u32();
  tag.a = src.get_u32();
  tag.b = src.get_u32();
  tag.c = src.get_u32();
  tag.d = src.get_u32();
  tag.e = src.get_u32();
  tag.f = src.get_u32();
  tag.g = src.get_u32();
  tag.x = src.get_double();
  tag.y = src.get_double();
  tag.n = src.get_i64();
  return tag;
}

const SnapshotSection* find_section(
    const std::vector<SnapshotSection>& sections, std::uint32_t id) {
  for (const SnapshotSection& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

const SnapshotSection& require_section(
    const std::vector<SnapshotSection>& sections, std::uint32_t id,
    const char* name) {
  const SnapshotSection* s = find_section(sections, id);
  if (s == nullptr) {
    throw CheckpointError(
        "checkpoint restore: snapshot is missing required section " +
        std::to_string(id) + " (" + name +
        "); it was not produced by SwarmCheckpoint::save -- restart the "
        "cell from scratch");
  }
  return *s;
}

}  // namespace

std::string canonical_config_string(const SwarmConfig& config) {
  std::string out;
  out.reserve(1024);
  out += "algorithm=" + core::to_string(config.algorithm) + "\n";

  put_u64_field(out, "n_peers", config.n_peers);
  put_double_field(out, "free_rider_fraction", config.free_rider_fraction);
  put_double_field(out, "strategic_fraction", config.strategic_fraction);
  put_u64_field(out, "capacity_classes", config.capacities.classes().size());
  for (const core::CapacityClass& c : config.capacities.classes()) {
    put_double_field(out, "capacity_rate", c.rate);
    put_double_field(out, "capacity_fraction", c.fraction);
  }
  put_double_field(out, "seeder_capacity", config.seeder_capacity);
  put_u64_field(out, "seeder_count", config.seeder_count);

  put_i64_field(out, "file_bytes", config.file_bytes);
  put_i64_field(out, "piece_bytes", config.piece_bytes);

  put_u64_field(out, "arrivals", static_cast<std::uint64_t>(config.arrivals));
  put_double_field(out, "flash_crowd_window", config.flash_crowd_window);
  put_double_field(out, "arrival_rate", config.arrival_rate);
  put_u64_field(out, "graph_degree", config.graph.degree);
  put_double_field(out, "graph_large_view_multiplier",
                   config.graph.large_view_multiplier);
  put_i64_field(out, "max_incoming", config.max_incoming);

  put_i64_field(out, "upload_slots", config.upload_slots);
  put_i64_field(out, "seeder_slots", config.seeder_slots);
  put_double_field(out, "rechoke_interval", config.rechoke_interval);
  put_i64_field(out, "optimistic_rounds", config.optimistic_rounds);
  put_i64_field(out, "n_bt", config.n_bt);
  put_double_field(out, "alpha_r", config.alpha_r);
  put_u64_field(out, "reputation_mode",
                static_cast<std::uint64_t>(config.reputation_mode));
  put_u64_field(out, "piece_selection",
                static_cast<std::uint64_t>(config.piece_selection));
  put_double_field(out, "tchain_grace", config.tchain_grace);
  put_i64_field(out, "tchain_backlog", config.tchain_backlog);

  put_bool_field(out, "attack_collusion", config.attack.collusion);
  put_bool_field(out, "attack_whitewashing", config.attack.whitewashing);
  put_double_field(out, "attack_whitewash_interval",
                   config.attack.whitewash_interval);
  put_bool_field(out, "attack_sybil_praise", config.attack.sybil_praise);
  put_double_field(out, "attack_sybil_interval",
                   config.attack.sybil_interval);
  put_double_field(out, "attack_sybil_rate", config.attack.sybil_rate);
  put_bool_field(out, "attack_large_view", config.attack.large_view);

  put_double_field(out, "fault_transfer_loss_rate",
                   config.faults.transfer_loss_rate);
  put_double_field(out, "fault_transfer_stall_rate",
                   config.faults.transfer_stall_rate);
  put_double_field(out, "fault_stall_timeout", config.faults.stall_timeout);
  put_i64_field(out, "fault_max_retries", config.faults.max_retries);
  put_double_field(out, "fault_retry_backoff", config.faults.retry_backoff);
  put_double_field(out, "fault_retry_backoff_factor",
                   config.faults.retry_backoff_factor);
  put_double_field(out, "fault_retry_backoff_cap",
                   config.faults.retry_backoff_cap);
  put_double_field(out, "fault_churn_rate", config.faults.churn_rate);
  put_double_field(out, "fault_rejoin_probability",
                   config.faults.rejoin_probability);
  put_double_field(out, "fault_mean_downtime", config.faults.mean_downtime);
  put_double_field(out, "fault_seeder_uptime", config.faults.seeder_uptime);
  put_double_field(out, "fault_seeder_downtime",
                   config.faults.seeder_downtime);

  put_double_field(out, "linger_time", config.linger_time);
  put_double_field(out, "max_time", config.max_time);
  put_double_field(out, "retry_interval", config.retry_interval);
  put_u64_field(out, "seed", config.seed);
  put_u64_field(out, "audit_every", config.audit_every);
  return out;
}

// --- container ------------------------------------------------------------

std::string encode_snapshot(const SwarmConfig& config,
                            const std::vector<SnapshotSection>& sections) {
  const std::string fingerprint = canonical_config_string(config);
  util::ByteSink sink;
  sink.put_bytes(kMagic, sizeof(kMagic));
  sink.put_u32(kFormatVersion);
  sink.put_u32(0);  // flags, reserved
  sink.put_u32(util::crc32(fingerprint));
  sink.put_u64(fingerprint.size());
  sink.put_u32(static_cast<std::uint32_t>(sections.size()));
  for (const SnapshotSection& s : sections) {
    sink.put_u32(s.id);
    sink.put_u32(util::crc32(s.payload));
    sink.put_string(s.payload);
  }
  return sink.take();
}

std::vector<SnapshotSection> decode_snapshot(const SwarmConfig& config,
                                             const std::string& bytes) {
  util::ByteSource src(bytes, "snapshot container");
  try {
    char magic[sizeof(kMagic)];
    src.get_bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      throw CheckpointError(
          "checkpoint: bad magic -- this is not a COOPCKPT snapshot file "
          "(or its first bytes are corrupt); delete it and restart the "
          "cell from scratch");
    }
    const std::uint32_t version = src.get_u32();
    if (version != kFormatVersion) {
      throw CheckpointError(
          "checkpoint: snapshot format version " + std::to_string(version) +
          " != supported " + std::to_string(kFormatVersion) +
          " -- it was written by an incompatible build; restart the cell "
          "from scratch");
    }
    // Reserved flags: always written as zero, and rejected otherwise so
    // that EVERY header byte is validated (a flipped flags byte must not
    // be silently accepted) and a future format can repurpose the field
    // without old builds misreading it.
    const std::uint32_t flags = src.get_u32();
    if (flags != 0) {
      throw CheckpointError(
          "checkpoint: reserved header flags are nonzero -- the header is "
          "corrupt or the snapshot came from a newer, incompatible build; "
          "restart the cell from scratch");
    }

    const std::uint32_t want_crc = src.get_u32();
    const std::uint64_t want_len = src.get_u64();
    const std::string fingerprint = canonical_config_string(config);
    if (want_len != fingerprint.size() ||
        want_crc != util::crc32(fingerprint)) {
      throw CheckpointError(
          "checkpoint: config fingerprint mismatch -- the snapshot was "
          "taken under a different cell configuration; resume with the "
          "identical configuration or restart the cell from scratch");
    }

    const std::uint32_t count = src.get_u32();
    // Each section needs at least its 16-byte frame (id + crc + length),
    // so a count the remaining bytes cannot hold is corruption -- caught
    // here rather than as a multi-GB reserve below.
    if (count > src.remaining() / 16) {
      throw CheckpointError(
          "checkpoint: section count " + std::to_string(count) +
          " exceeds what the container's " +
          std::to_string(src.remaining()) +
          " remaining bytes could hold -- the header is corrupt; delete "
          "the snapshot and restart the cell from scratch");
    }
    std::vector<SnapshotSection> sections;
    sections.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      SnapshotSection s;
      s.id = src.get_u32();
      const std::uint32_t crc = src.get_u32();
      s.payload = src.get_string();
      const std::uint32_t got = util::crc32(s.payload);
      if (got != crc) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "checkpoint: section %u failed its CRC32 (stored "
                      "%08x, computed %08x)",
                      s.id, crc, got);
        throw CheckpointError(
            std::string(buf) +
            " -- the snapshot is bit-rotted; delete it and resume from an "
            "earlier snapshot or restart the cell from scratch");
      }
      sections.push_back(std::move(s));
    }
    src.expect_exhausted();
    return sections;
  } catch (const util::SerializeError& e) {
    throw CheckpointError(
        std::string("checkpoint: snapshot container is truncated or "
                    "corrupt (") +
        e.what() +
        "); delete it and resume from an earlier snapshot or restart the "
        "cell from scratch");
  }
}

// --- swarm save/restore ----------------------------------------------------

std::vector<SnapshotSection> SwarmCheckpoint::save(const Swarm& swarm) {
  std::vector<SnapshotSection> sections;

  {
    util::ByteSink sink;
    sink.put_double(swarm.engine_.now());
    sink.put_u64(swarm.engine_.next_seq());
    sink.put_u64(swarm.engine_.events_processed());
    sections.push_back({kSectionEngine, sink.take()});
  }
  {
    util::ByteSink sink;
    const std::vector<SimEngine::QueueEntry> entries =
        swarm.engine_.snapshot_queue();
    sink.put_u64(entries.size());
    for (const SimEngine::QueueEntry& e : entries) {
      sink.put_double(e.time);
      sink.put_u64(e.seq);
      save_tag(sink, e.tag);
    }
    sections.push_back({kSectionQueue, sink.take()});
  }
  {
    util::ByteSink sink;
    std::uint64_t words[4];
    swarm.rng_.save_state(words);
    for (const std::uint64_t w : words) sink.put_u64(w);
    sections.push_back({kSectionRng, sink.take()});
  }
  {
    util::ByteSink sink;
    swarm.store_.checkpoint_save(sink);
    sections.push_back({kSectionPeers, sink.take()});
  }
  {
    util::ByteSink sink;
    swarm.strategy_->checkpoint_save(sink);
    sections.push_back({kSectionStrategy, sink.take()});
  }
  {
    util::ByteSink sink;
    sink.put_u64(swarm.reputation_.size());
    for (const double r : swarm.reputation_) sink.put_double(r);
    sink.put_u64(swarm.compliant_unfinished_);
    const FaultStats& fs = swarm.fault_stats_;
    sink.put_u64(fs.transfer_failures);
    sink.put_u64(fs.transfer_stalls);
    sink.put_u64(fs.uploader_vanished);
    sink.put_u64(fs.retries_scheduled);
    sink.put_u64(fs.retry_successes);
    sink.put_u64(fs.transfers_abandoned);
    sink.put_u64(fs.retries_dropped);
    sink.put_u64(fs.churn_departures);
    sink.put_u64(fs.churn_rejoins);
    sink.put_u64(fs.churn_losses);
    sink.put_u64(fs.seeder_outages);
    sink.put_i64(fs.offered_bytes);
    sink.put_i64(fs.goodput_bytes);
    swarm.piece_freq_.checkpoint_save(sink);
    sections.push_back({kSectionSwarm, sink.take()});
  }
#if COOPNET_AUDIT
  if (swarm.auditor_) {
    util::ByteSink sink;
    swarm.auditor_->checkpoint_save(sink);
    sections.push_back({kSectionAudit, sink.take()});
  }
#endif
  return sections;
}

void SwarmCheckpoint::restore(Swarm& swarm,
                              const std::vector<SnapshotSection>& sections) {
  if (swarm.engine_.pending() != 0 || swarm.engine_.now() != 0.0) {
    throw CheckpointError(
        "checkpoint restore: the target swarm already ran events; restore "
        "requires a freshly built swarm (start_restored() only)");
  }

  // --- pass 1: parse + validate everything parseable without mutating ----
  const SnapshotSection& sec_engine =
      require_section(sections, kSectionEngine, "engine");
  const SnapshotSection& sec_queue =
      require_section(sections, kSectionQueue, "queue");
  const SnapshotSection& sec_rng = require_section(sections, kSectionRng,
                                                   "rng");
  const SnapshotSection& sec_peers =
      require_section(sections, kSectionPeers, "peers");
  const SnapshotSection& sec_strategy =
      require_section(sections, kSectionStrategy, "strategy");
  const SnapshotSection& sec_swarm =
      require_section(sections, kSectionSwarm, "swarm");
  const SnapshotSection* sec_audit = find_section(sections, kSectionAudit);

  double now = 0.0;
  std::uint64_t next_seq = 0, processed = 0;
  std::vector<SimEngine::QueueEntry> entries;
  std::uint64_t rng_words[4];
  std::vector<double> reputation;
  std::uint64_t compliant_unfinished = 0;
  FaultStats stats;
  try {
    {
      util::ByteSource src(sec_engine.payload, "engine section");
      now = src.get_double();
      next_seq = src.get_u64();
      processed = src.get_u64();
      src.expect_exhausted();
    }
    {
      util::ByteSource src(sec_queue.payload, "queue section");
      const std::size_t n = src.get_count(28);
      entries.reserve(n);
      std::uint64_t max_seq = 0;
      for (std::size_t i = 0; i < n; ++i) {
        SimEngine::QueueEntry e;
        e.time = src.get_double();
        e.seq = src.get_u64();
        e.tag = load_tag(src);
        if (e.tag.kind == kEvNone || e.tag.kind > kEvExternalTimer) {
          throw CheckpointError(
              "checkpoint restore: queue entry " + std::to_string(i) +
              " carries unknown event kind " + std::to_string(e.tag.kind) +
              " -- the snapshot was written by a newer build; restart the "
              "cell from scratch");
        }
        // A timer tag must have an owner in this swarm, or dispatching it
        // would throw mid-run.
        if (e.tag.kind == kEvExternalTimer &&
            e.tag.a >= swarm.timers_.size()) {
          throw CheckpointError(
              "checkpoint restore: queue entry " + std::to_string(i) +
              " is external timer sub-id " + std::to_string(e.tag.a) +
              " but the swarm has " + std::to_string(swarm.timers_.size()) +
              " registered -- register the run's timers (e.g. "
              "RunMetrics::install_restored) before restore");
        }
        if (e.tag.kind == kEvStrategyTimer) {
          try {
            // Only the throw matters: it means the mechanism does not own
            // this sub-id.
            (void)swarm.strategy_->rebuild_timer(swarm, e.tag.a);
          } catch (const std::logic_error& err) {
            throw CheckpointError(
                "checkpoint restore: queue entry " + std::to_string(i) +
                " is a strategy timer the " +
                core::to_string(swarm.config_.algorithm) +
                " mechanism does not own (" + err.what() + ")");
          }
        }
        max_seq = e.seq > max_seq ? e.seq : max_seq;
        entries.push_back(e);
      }
      src.expect_exhausted();
      if (!entries.empty() && next_seq <= max_seq) {
        throw CheckpointError(
            "checkpoint restore: engine next_seq " +
            std::to_string(next_seq) + " does not exceed max queued seq " +
            std::to_string(max_seq) + " -- inconsistent snapshot");
      }
    }
    {
      util::ByteSource src(sec_rng.payload, "rng section");
      for (std::uint64_t& w : rng_words) w = src.get_u64();
      src.expect_exhausted();
    }
    {
      util::ByteSource src(sec_swarm.payload, "swarm section");
      const std::size_t n_rep = src.get_count(8);
      if (n_rep != swarm.reputation_.size()) {
        throw CheckpointError(
            "checkpoint restore: reputation ledger size " +
            std::to_string(n_rep) + " != population " +
            std::to_string(swarm.reputation_.size()) +
            " -- snapshot taken under a different configuration");
      }
      reputation.resize(n_rep);
      for (double& r : reputation) r = src.get_double();
      compliant_unfinished = src.get_u64();
      stats.transfer_failures = src.get_u64();
      stats.transfer_stalls = src.get_u64();
      stats.uploader_vanished = src.get_u64();
      stats.retries_scheduled = src.get_u64();
      stats.retry_successes = src.get_u64();
      stats.transfers_abandoned = src.get_u64();
      stats.retries_dropped = src.get_u64();
      stats.churn_departures = src.get_u64();
      stats.churn_rejoins = src.get_u64();
      stats.churn_losses = src.get_u64();
      stats.seeder_outages = src.get_u64();
      stats.offered_bytes = src.get_i64();
      stats.goodput_bytes = src.get_i64();
      // The piece-frequency payload follows; parsed during apply (it
      // loads in place), structurally CRC-guarded like everything else.
    }
  } catch (const util::SerializeError& e) {
    throw CheckpointError(
        std::string("checkpoint restore: snapshot section is truncated or "
                    "structurally invalid (") +
        e.what() + "); restart the cell from scratch");
  }

  // --- pass 2: apply -----------------------------------------------------
  try {
    {
      util::ByteSource src(sec_peers.payload, "peers section");
      swarm.store_.checkpoint_load(src);
      src.expect_exhausted();
    }
    {
      util::ByteSource src(sec_strategy.payload, "strategy section");
      swarm.strategy_->checkpoint_load(src, swarm);
      src.expect_exhausted();
    }
    {
      util::ByteSource src(sec_swarm.payload, "swarm section");
      // Skip past the pass-1 scalars to the piece-frequency payload.
      src.get_count(8);
      for (std::size_t i = 0; i < reputation.size(); ++i) src.get_double();
      for (int i = 0; i < 12; ++i) src.get_u64();
      src.get_i64();
      src.get_i64();
      swarm.piece_freq_.checkpoint_load(src);
      src.expect_exhausted();
    }
    swarm.reputation_ = std::move(reputation);
    swarm.compliant_unfinished_ =
        static_cast<std::size_t>(compliant_unfinished);
    swarm.fault_stats_ = stats;
    swarm.rng_.restore_state(rng_words);

#if COOPNET_AUDIT
    if (swarm.auditor_) {
      if (sec_audit == nullptr) {
        throw CheckpointError(
            "checkpoint restore: this build audits (COOPNET_AUDIT + "
            "audit_every > 0) but the snapshot has no audit section -- it "
            "was taken by a non-audit build; restore with auditing off or "
            "restart the cell from scratch");
      }
      util::ByteSource src(sec_audit->payload, "audit section");
      swarm.auditor_->checkpoint_load(src);
      src.expect_exhausted();
    }
#else
    // A non-audit build restoring an audit-build snapshot: the audit
    // section is pure observation state, safe to drop.
    (void)sec_audit;
#endif

    for (const SimEngine::QueueEntry& e : entries) {
      swarm.engine_.restore_entry(e);
    }
    swarm.engine_.set_now(now);
    swarm.engine_.set_next_seq(next_seq);
    swarm.engine_.set_processed(processed);
  } catch (const CheckpointError&) {
    throw;
  } catch (const util::SerializeError& e) {
    throw CheckpointError(
        std::string("checkpoint restore: CRC-valid snapshot failed "
                    "structurally mid-apply (") +
        e.what() +
        ") -- version-skewed payload; discard this swarm object and "
        "restart the cell from scratch");
  } catch (const std::logic_error& e) {
    throw CheckpointError(
        std::string("checkpoint restore: applying the snapshot failed (") +
        e.what() +
        ") -- discard this swarm object and restart the cell from "
        "scratch");
  }
}

}  // namespace coopnet::sim
