// Deterministic fault injection (RocksDB SyncPoint idiom): code threads
// named *fault points* through the pipeline (adapter reads, record parse,
// UDF evaluation, holder pushes, WAL append, LSM apply/flush, ...); tests
// and soak harnesses *arm* points with a trigger — fire on the nth hit, on
// every nth hit, with a seeded probability, or always — and an injected
// outcome (an error Status and/or a delay). Disarmed points cost one relaxed
// atomic load; nothing else, not even the point-name string, is touched.
//
// Determinism: every probabilistic decision derives from an explicit seed.
// Unkeyed probability triggers draw from a per-point splitmix64 stream;
// *keyed* hits (IDEA_FAULT_HIT_KEYED, used where concurrent threads race on
// the same point) decide by hashing seed ^ payload, so the set of affected
// records is a pure function of the seed and the data — identical across
// runs regardless of thread interleaving.
//
// Usage:
//
//   Status DoWork() {
//     IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.udf"));
//     ...
//   }
//
//   FaultInjector::Default().Arm("compute.udf",
//       FaultSpec::EveryNth(50, StatusCode::kInternal));
//   FaultInjector::Default().Reseed(42);
//   ... run ...
//   FaultInjector::Default().DisarmAll();
//
// The IDEA_FAULTS environment variable arms points at startup (see
// FaultInjector::ArmFromEnv), e.g.
//   IDEA_FAULTS="seed=42;compute.parse=prob:0.01:parse_error;wal.append=nth:100"
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace idea::common {

/// Stable 64-bit content hash (FNV-1a with a splitmix64 finalizer). Used for
/// keyed fault decisions and deterministic retry jitter; never changes across
/// processes or platforms.
uint64_t StableHash64(std::string_view bytes);

/// Bounded exponential backoff: base_us * 2^min(attempt, 6), with
/// deterministic jitter drawn from `salt` into [delay/2, delay]. Returns 0
/// when base_us is 0. Same (base, attempt, salt) => same delay.
uint64_t RetryBackoffMicros(uint64_t base_us, uint32_t attempt, uint64_t salt);

/// What an armed fault point does when a hit triggers.
struct FaultSpec {
  enum class Trigger : uint8_t {
    kAlways,       // every hit fires
    kNth,          // exactly the nth hit fires (1-based), once
    kEveryNth,     // every nth hit fires (hits 0 mod n)
    kProbability,  // each hit fires with probability `probability`
  };

  Trigger trigger = Trigger::kAlways;
  uint64_t nth = 1;          // kNth / kEveryNth period
  double probability = 0.0;  // kProbability
  /// Error injected on fire; kOk makes the fault delay-only.
  StatusCode code = StatusCode::kInternal;
  /// Sleep applied on fire (before the status is returned).
  uint64_t delay_us = 0;
  /// Stop firing after this many fires (the point stays armed and counting).
  uint64_t max_fires = UINT64_MAX;

  static FaultSpec Always(StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kAlways;
    s.code = code;
    return s;
  }
  static FaultSpec Nth(uint64_t n, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kNth;
    s.nth = n;
    s.code = code;
    return s;
  }
  static FaultSpec EveryNth(uint64_t n, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kEveryNth;
    s.nth = n;
    s.code = code;
    return s;
  }
  static FaultSpec Probability(double p, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kProbability;
    s.probability = p;
    s.code = code;
    return s;
  }
  static FaultSpec Delay(uint64_t micros) {
    FaultSpec s;
    s.trigger = Trigger::kAlways;
    s.code = StatusCode::kOk;
    s.delay_us = micros;
    return s;
  }
};

namespace fault_internal {

/// How many ordinals a thread reserves per trip to the shared dispenser.
/// Small enough that a thread strands at most a block's worth of ordinals
/// when it exits mid-block, large enough to amortize the shared RMW away.
inline constexpr uint64_t kOrdinalBlock = 64;

/// The inline part of a thread's ordinal block for one point, packed into
/// one word: the arming epoch the block belongs to (high half) and how many
/// more hits it can absorb before the next hit that could fire (low half).
/// The counting triggers (nth / every-nth) precompute that run of "quiet"
/// hits when the block is refilled, so an armed-but-idle hit is one compare
/// and a decrement. Eight points share a cache line; the rest of the block
/// lives out of line (in the .cc).
inline constexpr uint64_t QuietWord(uint32_t epoch, uint32_t quiet) {
  return (uint64_t{epoch} << 32) | quiet;
}

/// Per-thread quiet-run table, indexed by FaultPoint::quiet_slot_
/// (registration order, process-global). Points registered past
/// kFastTlsSlots share the last word, which never holds a quiet run, so
/// they take the out-of-line path on every hit.
inline constexpr uint32_t kFastTlsSlots = 128;
inline thread_local uint64_t t_quiet[kFastTlsSlots + 1];

}  // namespace fault_internal

/// One named fault point. Instances are created on first registration and
/// live for the process; call sites cache the pointer (the IDEA_FAULT_HIT
/// macros do this with a function-local static).
class FaultPoint {
 public:
  /// Hit statistics are striped over this many cache-line-padded slots, one
  /// per thread (round-robin beyond the stripe count). Striping keeps the
  /// armed hot path free of contended read-modify-writes; counts are exact
  /// up to kStatShards concurrently hitting threads.
  static constexpr uint32_t kStatShards = 64;

  explicit FaultPoint(std::string name) : name_(std::move(name)), rng_(0) {}
  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const std::string& name() const { return name_; }
  /// The epoch this point is armed in, or 0 while disarmed. The hot-path
  /// guard: one relaxed atomic load, whose value the armed path reuses.
  uint32_t armed_epoch() const { return armed_epoch_.load(std::memory_order_relaxed); }
  bool armed() const { return armed_epoch() != 0; }

  /// Records a hit and applies the armed spec. Returns the injected error
  /// when the hit fires (OK for delay-only faults, after sleeping).
  Status Fire() { return FireKeyed(std::string_view()); }

  /// Like Fire(), but probability triggers decide by hashing seed ^ payload
  /// instead of consuming the shared RNG stream — deterministic per payload
  /// under concurrency.
  Status FireKeyed(std::string_view payload) {
    return FireArmed(armed_epoch(), payload);
  }

  /// FireKeyed for a caller that has already loaded armed_epoch() (the
  /// IDEA_FAULT_HIT macros). Inlined fast path: a hit inside its thread's
  /// precomputed quiet run — the overwhelmingly common case for an
  /// armed-but-idle counting trigger (nth / every-nth) — costs one compare
  /// and a thread-local decrement, reading only the cache line the guard
  /// already loaded. Everything else (block refill, the hit that may fire,
  /// always/probability triggers) takes the out-of-line path.
  Status FireArmed(uint32_t epoch, std::string_view payload) {
    uint64_t& quiet = fault_internal::t_quiet[quiet_slot_];
    // In this epoch's run iff quiet - QuietWord(epoch, 1) is in [0, 2^32 - 1):
    // the high halves match and the low half (hits left) is non-zero.
    if (quiet - fault_internal::QuietWord(epoch, 1) < 0xffffffffu) [[likely]] {
      --quiet;
      return Status::OK();
    }
    return FireSlow(payload);
  }

  /// Total recorded hits. Exact for always/probability triggers; for the
  /// counting triggers (nth/every-nth) the count is retired per ordinal
  /// block, so it can lag the true hit count by up to a block per thread
  /// until the thread's next block refill.
  uint64_t hits() const;
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  friend class FaultInjector;

  struct alignas(64) StatShard {
    std::atomic<uint64_t> hits{0};
  };

  /// Out-of-line remainder of FireKeyed: always/probability triggers, and
  /// counting triggers whose thread-local block needs a refill.
  Status FireSlow(std::string_view payload);
  /// Applies the armed spec to a firing hit: max_fires cap, delay, status.
  Status Fired();

  /// Next 1-based hit ordinal for the counting triggers (kNth/kEveryNth),
  /// refilling the thread's block from the shared dispenser when exhausted,
  /// and granting the inline path the run of following ordinals that cannot
  /// fire. Every ordinal is handed out exactly once, which keeps "the nth
  /// hit fires once" exact; ordering across threads is approximate, and on a
  /// single thread ordinals are the familiar 1, 2, 3, ...
  uint64_t NextOrdinal();
  /// Zeroes hits/fires/ordinals and invalidates outstanding thread-local
  /// ordinal blocks (via the epoch). Called under mu_ while disarmed.
  void ResetCountersLocked();
  /// Arms the point in the current epoch (never 0, which means disarmed).
  void ArmInCurrentEpoch();

  // Hot line: everything an armed-but-idle hit reads — the guard (which
  // doubles as the block-invalidation epoch) and the thread-local slot —
  // shares the cache line the disarmed path already loads, so arming a
  // point adds no cache-line traffic beyond the thread's own quiet-run
  // word. spec_ and seed_ are written only while disarmed (Arm/Reseed zero
  // armed_epoch_ around the write), so Fire() reads them without the mutex.
  std::atomic<uint32_t> armed_epoch_{0};  // epoch_ while armed, else 0
  uint32_t quiet_slot_ = 0;  // index into t_quiet (kFastTlsSlots: no run)
  uint32_t tls_slot_ = 0;    // index into the per-thread block tables
  // Bumped on Arm/Reseed to drop old blocks; never 0 once armed.
  std::atomic<uint32_t> epoch_{0};
  // Warm: read per out-of-line hit (block refill, fire), not per quiet hit.
  FaultSpec spec_;
  uint64_t seed_ = 0;
  std::atomic<uint64_t> fires_{0};
  // Block dispenser for the counting triggers, on its own cache line so its
  // fetch_add never dirties the hot line.
  alignas(64) std::atomic<uint64_t> ordinal_{0};
  // Cold: registry bookkeeping and statistics.
  std::string name_;
  StatShard stat_shards_[kStatShards];
  std::mutex mu_;  // guards rng_ (unkeyed probability draws)
  Rng rng_;
};

/// Process-wide registry of fault points.
class FaultInjector {
 public:
  static FaultInjector& Default();

  /// Get-or-create the point; the returned pointer is stable for the
  /// process. Called once per call site via the IDEA_FAULT_HIT macros.
  FaultPoint* RegisterPoint(std::string_view name);

  /// Arms `point` (creating it if needed) with `spec`, resetting its hit and
  /// fire counters and reseeding its RNG from the injector seed.
  void Arm(const std::string& point, FaultSpec spec);
  /// Disarms one point (counters retained until the next Arm).
  void Disarm(const std::string& point);
  /// Disarms every point.
  void DisarmAll();

  /// Sets the injector seed and reseeds + resets every point (armed or not).
  /// Same seed + same spec + same data => identical fire decisions.
  void Reseed(uint64_t seed);
  uint64_t seed() const;

  /// Arms points from a spec string:
  ///   entry        := point "=" trigger [":" code] [":delay=" micros]
  ///                 | "seed=" number
  ///   trigger      := "always" | "nth:" n | "every:" n | "prob:" p
  ///                 | "delay:" micros
  ///   code         := "internal" | "parse_error" | "type_mismatch" | "io"
  ///                 | "corruption" | "aborted" | "timed_out" | "not_found"
  ///                 | "resource_exhausted" | "invalid_argument" | "ok"
  /// Entries are ";"- or ","-separated. Returns the number of points armed.
  Result<int> ArmFromString(const std::string& spec);

  /// ArmFromString over the given environment variable; 0 when unset/empty.
  Result<int> ArmFromEnv(const char* var = "IDEA_FAULTS");

  struct PointStats {
    uint64_t hits = 0;
    uint64_t fires = 0;
    bool armed = false;
  };
  /// Stats for one point (zeros when the point does not exist).
  PointStats GetStats(const std::string& point) const;
  /// Stats for every registered point, by name.
  std::map<std::string, PointStats> Stats() const;

  /// True when at least one point is armed. The IDEA_FAULT_HIT macros do not
  /// consult this (the per-point armed flag suffices); exposed for tests and
  /// for gating optional bookkeeping.
  bool enabled() const { return armed_count_.load(std::memory_order_relaxed) > 0; }

 private:
  FaultPoint* FindLocked(const std::string& name) const;

  mutable std::mutex mu_;  // guards points_ and seed_
  // Name -> point. Values are owned raw pointers that intentionally live for
  // the process (call sites cache them in function-local statics).
  std::map<std::string, FaultPoint*, std::less<>> points_;
  uint64_t seed_ = 0;
  std::atomic<uint64_t> armed_count_{0};
};

}  // namespace idea::common

/// Status-valued hit on the named fault point. `name` must be a string
/// literal (or have static storage duration). Zero cost while the point is
/// disarmed: a function-local static caches the FaultPoint* and the guard is
/// a single relaxed load.
#define IDEA_FAULT_HIT(name)                                                \
  ([]() -> ::idea::Status {                                                 \
    static ::idea::common::FaultPoint* _idea_fp =                           \
        ::idea::common::FaultInjector::Default().RegisterPoint(name);       \
    const uint32_t _idea_epoch = _idea_fp->armed_epoch();                   \
    return _idea_epoch != 0                                                 \
               ? _idea_fp->FireArmed(_idea_epoch, ::std::string_view())     \
               : ::idea::Status::OK();                                      \
  }())

/// Keyed variant: probability triggers decide per `payload` (deterministic
/// under thread interleaving). `payload` must convert to std::string_view.
#define IDEA_FAULT_HIT_KEYED(name, payload)                                 \
  ([](::std::string_view _idea_key) -> ::idea::Status {                     \
    static ::idea::common::FaultPoint* _idea_fp =                           \
        ::idea::common::FaultInjector::Default().RegisterPoint(name);       \
    const uint32_t _idea_epoch = _idea_fp->armed_epoch();                   \
    return _idea_epoch != 0 ? _idea_fp->FireArmed(_idea_epoch, _idea_key)   \
                            : ::idea::Status::OK();                         \
  }(payload))
