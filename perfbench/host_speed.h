// Reference work: a fixed piece of CPU and memory work that does not use the
// program under test, timed next to the program to tell how fast the shared
// host runs at that moment. Busy neighbours on the host slow the program by
// up to 2x within minutes, in CPU time as much as in wall time, mostly by
// taking the shared last-level cache; scaling the program's CPU times by the
// reference work's, measured seconds apart, takes out about half of that.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class ReferenceWork {
 public:
  /// CPU time of one pass on the host the reported times are scaled to: a
  /// round figure near its time on the 4-vCPU 2.0 GHz Xeon VM (105 MiB
  /// shared L3) the baseline was taken on, which ranged over 36-48 ms.
  static constexpr double kNominalUs = 40000;

  /// Builds the inputs once, so passes neither allocate large buffers nor
  /// fault in fresh pages.
  explicit ReferenceWork(uint64_t seed = 1);

  /// One pass; returns the calling thread's CPU time for it, in µs. A pass
  /// sorts a copy of 150K random integers, then follows random links through
  /// an 8 MiB and a 24 MiB table: work that slows as neighbours take the
  /// shared cache, as record processing does.
  double RunUs();

  /// Sum of every pass's result so far; equal for equal seeds and passes.
  uint64_t checksum() const { return checksum_; }

 private:
  std::vector<uint64_t> unsorted_;
  std::vector<uint32_t> small_cycle_;
  std::vector<uint32_t> large_cycle_;
  uint64_t checksum_ = 0;
};

/// `value` measured while a reference pass took `reference_us`, scaled to a
/// host on which it takes ReferenceWork::kNominalUs.
double ScaleToNominal(double value, double reference_us);

}  // namespace perfbench
