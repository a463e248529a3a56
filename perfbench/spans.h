// In-memory span recorder for the pipeline benchmark. Spans are recorded
// around the benchmark's own calls into each layer (the program itself is not
// instrumented here), kept in memory, and written out as Chrome trace_event
// JSON when the run ends.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on a monotonic clock.
double NowUs();

/// CPU time used so far by every thread of this process, in microseconds.
/// On a guest with paravirtual steal-time accounting, time the host takes
/// the virtual CPUs away does not count.
double ProcessCpuUs();

/// CPU time used so far by the calling thread, in microseconds.
double ThreadCpuUs();

struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;  // index of the enclosing span; -1 for a root
  uint64_t batch = 0;   // batch (or trial) the span belongs to; 0 = none
  uint32_t tid = 0;     // small per-thread id of the recording thread
};

/// Thread-safe append-only span store. A disabled recorder records nothing
/// and hands out id -1, so call sites need no branches.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t Add(std::string name, double start_us, double end_us, int64_t parent = -1,
              uint64_t batch = 0);
  /// Opens a span ending at the matching End(); returns its id.
  int64_t Begin(std::string name, int64_t parent = -1, uint64_t batch = 0);
  void End(int64_t id);

  std::vector<SpanRecord> Snapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t parent = -1,
             uint64_t batch = 0)
      : recorder_(recorder), id_(recorder->Begin(std::move(name), parent, batch)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans);

/// Chrome trace_event JSON ("X" complete events, µs timestamps) with each
/// span's id, parent, batch and self time in its args. `other_data` is a
/// JSON object placed under "otherData" ("{}" for none).
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const std::string& other_data = "{}");

}  // namespace perfbench
