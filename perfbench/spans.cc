#include "spans.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

double NowUs() {
  using namespace std::chrono;
  return duration<double, std::micro>(steady_clock::now().time_since_epoch()).count();
}

namespace {
double ClockUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}
}  // namespace

double ProcessCpuUs() { return ClockUs(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuUs() { return ClockUs(CLOCK_THREAD_CPUTIME_ID); }

namespace {

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

int64_t SpanRecorder::Add(std::string name, double start_us, double end_us,
                          int64_t parent, uint64_t batch) {
  if (!enabled_) return -1;
  SpanRecord rec{std::move(name), start_us, end_us, parent, batch, ThisThreadId()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
  return static_cast<int64_t>(spans_.size() - 1);
}

int64_t SpanRecorder::Begin(std::string name, int64_t parent, uint64_t batch) {
  const double now = NowUs();
  return Add(std::move(name), now, now, parent, batch);
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) return;
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

std::vector<SpanRecord> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const std::string& other_data) {
  const std::vector<double> self = SelfTimes(spans);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out.push_back(',');
    out.append("{\"name\":");
    AppendJsonString(s.name, &out);
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%lld,"
                  "\"batch\":%llu,\"self_us\":%.3f}}",
                  s.start_us, s.end_us - s.start_us, s.tid, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.batch), self[i]);
    out.append(buf);
  }
  out.append("],\"displayTimeUnit\":\"ms\",\"otherData\":");
  out.append(other_data);
  out.append("}\n");
  return out;
}

}  // namespace perfbench
