#include "host_speed.h"

#include <algorithm>

#include "spans.h"

namespace perfbench {

namespace {

struct XorShift {
  uint64_t x;
  uint64_t Next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

constexpr size_t kSortValues = 150000;
constexpr size_t kSmallSlots = size_t{2} << 20;  // 8 MiB of uint32
constexpr size_t kLargeSlots = size_t{6} << 20;  // 24 MiB
constexpr size_t kSmallSteps = 100000;
constexpr size_t kLargeSteps = 75000;

// One random cycle through every slot (Sattolo's shuffle), so a walk never
// settles into a short loop that fits in a faster cache.
std::vector<uint32_t> RandomCycle(size_t slots, XorShift* rng) {
  std::vector<uint32_t> next(slots);
  for (size_t i = 0; i < slots; ++i) next[i] = static_cast<uint32_t>(i);
  for (size_t i = slots - 1; i > 0; --i) std::swap(next[i], next[rng->Next() % i]);
  return next;
}

uint32_t Walk(const std::vector<uint32_t>& next, uint32_t at, size_t steps) {
  for (size_t i = 0; i < steps; ++i) at = next[at];
  return at;
}

}  // namespace

ReferenceWork::ReferenceWork(uint64_t seed) {
  XorShift rng{seed * 0x9E3779B97F4A7C15ull + 1};
  unsorted_.resize(kSortValues);
  for (uint64_t& v : unsorted_) v = rng.Next();
  small_cycle_ = RandomCycle(kSmallSlots, &rng);
  large_cycle_ = RandomCycle(kLargeSlots, &rng);
}

double ReferenceWork::RunUs() {
  const double t0 = ThreadCpuUs();
  std::vector<uint64_t> sorted = unsorted_;
  std::sort(sorted.begin(), sorted.end());
  uint64_t check = sorted[sorted.size() / 2];
  check += Walk(small_cycle_, static_cast<uint32_t>(check % kSmallSlots), kSmallSteps);
  check += Walk(large_cycle_, static_cast<uint32_t>(check % kLargeSlots), kLargeSteps);
  const double t1 = ThreadCpuUs();
  checksum_ += check;
  return t1 - t0;
}

double ScaleToNominal(double value, double reference_us) {
  return reference_us > 0 ? value * ReferenceWork::kNominalUs / reference_us : 0;
}

}  // namespace perfbench
