// Real-pipeline benchmark. Drives idea::Instance (threads mode, 3 nodes, one
// intake node) through its public API only: SQL++ DDL, a benchmark-owned
// feed::GeneratorAdapter, START FEED, WaitForFeed and queries. Never uses
// FeedSimulation or virtual time. See README.md for the workloads, the
// metrics and the layer map.
//
//   pipeline_bench --workload ingest|enrich|fresh --seed N --seconds S
//                  --trace 0|1 [--trace-out PATH]
//
// --trace 0 runs whole trials (a fresh Instance each) for about S seconds and
// prints the end-to-end metrics with the samples they rest on: the program's
// CPU times, scaled by reference work timed around each trial (host_speed.h),
// and its peak resident set. Wall-clock figures are printed beside them.
// --trace 1 runs two untraced and two traced trials plus a serial pass
// through each layer's public calls, prints the per-layer metrics, and writes
// the span dump (Chrome trace_event JSON) to PATH.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when the output oracle finds a wrong record.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adm/json.h"
#include "bench_stats.h"
#include "host_speed.h"
#include "idea.h"
#include "obs/metrics.h"
#include "runtime/frame.h"
#include "runtime/partition_holder.h"
#include "spans.h"
#include "sqlpp/enrichment_plan.h"
#include "storage/catalog.h"
#include "storage/lsm_dataset.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/usecases.h"

namespace {

using namespace idea;
using perfbench::NowUs;
using perfbench::ProcessCpuUs;
using perfbench::ThreadCpuUs;
using perfbench::SpanRecorder;

constexpr size_t kNodes = 3;
constexpr size_t kCountryDomain = 500;
// Reference updates touch only rows of "hot" countries (index % kHotEvery ==
// 0), so tweets from every other country must match a serial enrichment over
// the final reference data exactly.
constexpr size_t kHotEvery = 10;
constexpr size_t kReligiousPopulations = 50000;
constexpr size_t kSafetyRatings = 5000;
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr uint64_t kRssEveryPolls = 50;  // resident-set samples every ~10 ms
constexpr size_t kQueryReps = 2;  // timed runs of each query, after one warm-up
constexpr size_t kLayerPassRecords = 30000;
// Reference passes before a trial, between its feed and its queries, and
// after its queries.
constexpr int kReferencePasses = 3;

struct WorkloadSpec {
  std::string name;
  size_t records = 0;  // tweets offered per trial
  size_t batch_size = 420;
  std::optional<workload::UseCaseId> use_case;  // none: no UDF
  double offered_rps = 0;                       // 0: closed loop, flat out
  double updates_per_record = 0;  // reference upserts per unit of progress
  bool updates_follow_stored = false;  // progress = stored (else offered)
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "ingest") {
    return WorkloadSpec{"ingest", 100000, 420, std::nullopt, 0, 0, false};
  }
  if (name == "enrich") {
    return WorkloadSpec{"enrich", 40000, 420, workload::UseCaseId::kLargestReligions,
                        0,        5.0 / 1000, true};
  }
  if (name == "fresh") {
    return WorkloadSpec{"fresh", 60000, 84, workload::UseCaseId::kSafetyRating,
                        15000,   1.0 / 30, false};
  }
  return std::nullopt;
}

const workload::UseCaseSpec* UseCase(const WorkloadSpec& w) {
  return w.use_case ? &workload::GetUseCase(*w.use_case) : nullptr;
}

std::string OutputDataset(const WorkloadSpec& w) {
  return w.use_case ? "EnrichedTweets" : "Tweets";
}

workload::RefSizes RefSizes() {
  workload::RefSizes sizes;
  sizes.religious_populations = kReligiousPopulations;
  sizes.safety_ratings = kSafetyRatings;
  return sizes;
}

bool IsHotCountry(const std::string& code) {
  // CountryCode(i) is "C%05zu".
  return code.size() > 1 && std::strtoull(code.c_str() + 1, nullptr, 10) % kHotEvery == 0;
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "pipeline_bench: %s: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what, st);
}

// --- inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<std::string> tweets;  // feed wire format, id i at index i
  size_t input_bytes = 0;
  uint64_t ref_seed = 0;
  std::vector<adm::Value> updates;  // reference upserts, applied in order
  std::vector<int64_t> lookup_ids;  // primary keys the lookup query probes
  std::map<std::string, int64_t> country_counts;
};

// Current resident set of this process.
double RssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Everything the benchmark feeds the program is a function of the seed.
Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed) {
  Inputs in;
  in.ref_seed = seed * 7919 + 17;
  workload::TweetGenerator gen({.seed = seed, .country_domain = kCountryDomain});
  in.tweets.reserve(w.records);
  for (size_t i = 0; i < w.records; ++i) {
    adm::Value tweet = gen.NextValue();
    ++in.country_counts[tweet.GetField("country")->AsString()];
    in.tweets.push_back(adm::PrintJson(tweet));
    in.input_bytes += in.tweets.back().size();
  }
  Rng rng(seed ^ 0xBE7C4ull);
  // The updater's final target, floor(progress * rate) at full progress.
  const size_t n_updates =
      static_cast<size_t>(static_cast<double>(w.records) * w.updates_per_record);
  if (w.use_case == workload::UseCaseId::kLargestReligions) {
    // The same rows LoadUseCaseData loads for this seed; updates rewrite the
    // population and religion of rows in hot countries, never the country.
    std::vector<adm::Value> rows = workload::GenReligiousPopulations(
        kReligiousPopulations, kCountryDomain, in.ref_seed);
    std::vector<const adm::Value*> hot;
    for (const adm::Value& r : rows) {
      if (IsHotCountry(r.GetField("country_name")->AsString())) hot.push_back(&r);
    }
    const auto& religions = workload::ReligionPool();
    for (size_t i = 0; i < n_updates; ++i) {
      adm::Value row = *hot[rng.NextBelow(hot.size())];
      row.SetField("religion_name",
                   adm::Value::MakeString(religions[rng.NextBelow(religions.size())]));
      row.SetField("population", adm::Value::MakeInt(rng.NextInRange(1000, 10000000)));
      in.updates.push_back(std::move(row));
    }
  } else if (w.use_case == workload::UseCaseId::kSafetyRating) {
    static const char* kRatings[] = {"very-low", "low", "moderate", "high", "very-high"};
    for (size_t i = 0; i < n_updates; ++i) {
      const size_t country = rng.NextBelow(kCountryDomain / kHotEvery) * kHotEvery;
      in.updates.push_back(adm::Value::MakeObject({
          {"country_code", adm::Value::MakeString(workload::CountryCode(country))},
          {"safety_rating", adm::Value::MakeString(kRatings[rng.NextBelow(5)])},
      }));
    }
  }
  for (size_t i = 0; i < kQueryReps + 1; ++i) {
    in.lookup_ids.push_back(static_cast<int64_t>(rng.NextBelow(w.records)));
  }
  return in;
}

// --- the program under test ---------------------------------------------------

InstanceOptions MakeInstanceOptions() {
  InstanceOptions options;
  options.cluster.nodes = kNodes;
  options.cluster.mode = cluster::ExecutionMode::kThreads;
  return options;
}

// Creates the tweet datasets and, for enrichment workloads, the reference
// dataset (loaded) and the UDF.
void SetUpSchema(Instance* db, const WorkloadSpec& w, const Inputs& in,
                 SpanRecorder* spans, int64_t parent) {
  {
    perfbench::ScopedSpan s(spans, "instance.ddl", parent);
    Check(db->ExecuteScript(workload::TweetDdl()), "tweet DDL");
  }
  const workload::UseCaseSpec* uc = UseCase(w);
  if (uc == nullptr) return;
  {
    perfbench::ScopedSpan s(spans, "workload.ref_load", parent);
    Check(db->ExecuteScript(uc->ddl), "reference DDL");
    Check(workload::LoadUseCaseData(&db->catalog(), *uc, RefSizes(), kCountryDomain,
                                    in.ref_seed),
          "reference load");
  }
  perfbench::ScopedSpan s(spans, "sqlpp.udf_ddl", parent);
  Check(db->ExecuteScript(uc->function_ddl), "CREATE FUNCTION");
}

std::shared_ptr<storage::LsmDataset> RefDataset(Instance* db, const WorkloadSpec& w) {
  const workload::UseCaseSpec* uc = UseCase(w);
  return uc == nullptr ? nullptr : db->catalog().FindDataset(uc->datasets.front());
}

// The feed's only source: replays the generated tweets, flat out (closed
// loop) or on a fixed schedule (open loop), and remembers when each record
// was due and when it was handed over. It runs on the program's intake
// thread, so it reports the CPU time its waits for the schedule cost.
class TweetSource {
 public:
  TweetSource(const std::vector<std::string>* tweets, double rate)
      : tweets_(tweets), rate_(rate), due_us_(tweets->size()), emit_us_(tweets->size()) {}

  bool Next(std::string* out) {
    const size_t i = next_;
    if (i >= tweets_->size()) return false;
    double now = NowUs();
    if (rate_ > 0) {
      if (i == 0) start_us_ = now;
      const double due = start_us_ + static_cast<double>(i) * 1e6 / rate_;
      if (now < due) {
        const double c0 = ThreadCpuUs();
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::micro>(due))));
        wait_cpu_us_.store(wait_cpu_us_.load(std::memory_order_relaxed) + ThreadCpuUs() - c0,
                           std::memory_order_release);
        now = NowUs();
      }
      due_us_[i] = due;
    } else {
      due_us_[i] = now;
    }
    emit_us_[i] = now;
    *out = (*tweets_)[i];
    next_ = i + 1;
    offered_.store(i + 1, std::memory_order_release);
    return true;
  }

  const std::atomic<uint64_t>& offered() const { return offered_; }
  double wait_cpu_us() const { return wait_cpu_us_.load(std::memory_order_acquire); }
  // Read only after the feed has drained.
  const std::vector<double>& due_us() const { return due_us_; }
  const std::vector<double>& emit_us() const { return emit_us_; }

 private:
  const std::vector<std::string>* tweets_;
  const double rate_;
  size_t next_ = 0;
  double start_us_ = 0;
  std::vector<double> due_us_;
  std::vector<double> emit_us_;
  std::atomic<uint64_t> offered_{0};
  std::atomic<double> wait_cpu_us_{0};  // written by the one calling thread
};

// Process-wide registry series read before and after a feed run.
class RegistryWindow {
 public:
  void Counter(const std::string& name) { counters_[name] = Reg().GetCounter(name)->value(); }
  void Histogram(const std::string& name) {
    obs::Histogram* h = Reg().GetHistogram(name);
    hists_[name] = h->sum();
  }
  uint64_t CounterDelta(const std::string& name) const {
    return Reg().GetCounter(name)->value() - counters_.at(name);
  }
  double SumDeltaMs(const std::string& name) const {
    return (Reg().GetHistogram(name)->sum() - hists_.at(name)) / 1000.0;
  }

 private:
  static obs::MetricsRegistry& Reg() { return obs::MetricsRegistry::Default(); }
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> hists_;  // histogram sums, µs
};

struct Names {
  std::string feed, out, udf;
  std::string Intake(size_t p, const std::string& m) const {
    return "idea.intake." + feed + ".p" + std::to_string(p) + "." + m;
  }
  std::string Storage(size_t p, const std::string& m) const {
    return "idea.storage." + feed + ".p" + std::to_string(p) + "." + m;
  }
  std::string Node(const std::string& family, size_t n, const std::string& m) const {
    return "idea." + family + ".node-" + std::to_string(n) + "." + m;
  }
};

void OpenWindow(const Names& n, RegistryWindow* win) {
  win->Counter("idea.compute." + n.feed + ".invocations");
  win->Histogram("idea.compute." + n.feed + ".invocation_us");
  win->Histogram("idea.storage." + n.feed + ".store_us");
  for (size_t p = 0; p < kNodes; ++p) {
    for (const char* m : {"pull_block_us", "push_block_us"}) {
      win->Histogram(n.Intake(p, m));
      win->Histogram(n.Storage(p, m));
    }
    win->Histogram(n.Node("sched", p, "queue_wait_us"));
    win->Counter(n.Node("memgov", p, "delayed"));
    win->Counter(n.Node("memgov", p, "spills"));
  }
  if (!n.udf.empty()) {
    for (const char* m : {"noop_refreshes", "delta_refreshes", "full_rebuilds"}) {
      win->Counter("idea.plan." + n.udf + "." + m);
    }
    win->Counter("idea.eval." + n.udf + ".ref_candidates");
    win->Counter("idea.eval." + n.udf + ".records_enriched");
  }
  win->Counter("idea.lsm." + n.out + ".flushes");
  win->Counter("idea.lsm." + n.out + ".compactions");
  win->Histogram("idea.lsm." + n.out + ".flush_us");
  win->Histogram("idea.lsm." + n.out + ".compact_us");
  win->Counter("idea.wal.bytes_written");
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

// Per-stage counts, busy and wait times of one feed run (registry deltas).
Metrics StageMetrics(const Names& n, const RegistryWindow& win, double wall_ms,
                     size_t input_bytes, std::string* critical) {
  double intake_push = 0, compute_pull = 0, storage_push = 0, storage_pull = 0;
  double sched_wait = 0;
  uint64_t delayed = 0, spills = 0;
  int64_t intake_hwm = 0;
  for (size_t p = 0; p < kNodes; ++p) {
    intake_push += win.SumDeltaMs(n.Intake(p, "push_block_us"));
    compute_pull += win.SumDeltaMs(n.Intake(p, "pull_block_us"));
    storage_push += win.SumDeltaMs(n.Storage(p, "push_block_us"));
    storage_pull += win.SumDeltaMs(n.Storage(p, "pull_block_us"));
    sched_wait += win.SumDeltaMs(n.Node("sched", p, "queue_wait_us"));
    delayed += win.CounterDelta(n.Node("memgov", p, "delayed"));
    spills += win.CounterDelta(n.Node("memgov", p, "spills"));
    // Feed names are unique per trial, so the high watermark is this run's.
    intake_hwm = std::max(intake_hwm, obs::MetricsRegistry::Default()
                                          .GetGauge(n.Intake(p, "queue_depth"))
                                          ->high_watermark());
  }
  const double compute_busy = win.SumDeltaMs("idea.compute." + n.feed + ".invocation_us");
  const double storage_busy = win.SumDeltaMs("idea.storage." + n.feed + ".store_us");
  const double compute_util = compute_busy / wall_ms;
  const double storage_util = storage_busy / (wall_ms * kNodes);
  // An invocation's wall includes its node tasks waiting to pull records and
  // to push frames into full storage holders; net of those waits it is the
  // time the computing stage was actually working.
  const double compute_net_util =
      std::max(0.0, compute_busy - (compute_pull + storage_push) / kNodes) / wall_ms;
  *critical = storage_util > compute_net_util ? "storage" : "compute";

  double noop = 0, delta = 0, full = 0, candidates_per_rec = 0;
  if (!n.udf.empty()) {
    noop = win.CounterDelta("idea.plan." + n.udf + ".noop_refreshes");
    delta = win.CounterDelta("idea.plan." + n.udf + ".delta_refreshes");
    full = win.CounterDelta("idea.plan." + n.udf + ".full_rebuilds");
    const double enriched = win.CounterDelta("idea.eval." + n.udf + ".records_enriched");
    if (enriched > 0) {
      candidates_per_rec = win.CounterDelta("idea.eval." + n.udf + ".ref_candidates") / enriched;
    }
  }
  const std::string lsm = "idea.lsm." + n.out;
  return {
      {"feed.invocations",
       {static_cast<double>(win.CounterDelta("idea.compute." + n.feed + ".invocations")),
        "count"}},
      {"feed.compute_busy_ms", {compute_busy, "ms"}},
      {"feed.compute_util", {compute_util, "ratio"}},
      {"feed.compute_net_util", {compute_net_util, "ratio"}},
      {"feed.compute_pull_wait_ms", {compute_pull, "ms"}},
      {"feed.intake_push_wait_ms", {intake_push, "ms"}},
      {"feed.intake_queue_hwm", {static_cast<double>(intake_hwm), "records"}},
      {"feed.storage_busy_ms", {storage_busy, "ms"}},
      {"feed.storage_util", {storage_util, "ratio"}},
      {"feed.storage_pull_wait_ms", {storage_pull, "ms"}},
      {"feed.storage_push_wait_ms", {storage_push, "ms"}},
      {"runtime.sched_wait_ms", {sched_wait, "ms"}},
      {"runtime.memgov_delayed", {static_cast<double>(delayed), "count"}},
      {"runtime.memgov_spills", {static_cast<double>(spills), "count"}},
      {"sqlpp.noop_refreshes", {noop, "count"}},
      {"sqlpp.delta_refreshes", {delta, "count"}},
      {"sqlpp.full_rebuilds", {full, "count"}},
      {"sqlpp.delta_ratio", {delta + full > 0 ? delta / (delta + full) : 0, "ratio"}},
      {"sqlpp.candidates_per_rec", {candidates_per_rec, "count"}},
      {"storage.flushes", {static_cast<double>(win.CounterDelta(lsm + ".flushes")), "count"}},
      {"storage.flush_ms", {win.SumDeltaMs(lsm + ".flush_us"), "ms"}},
      {"storage.compactions",
       {static_cast<double>(win.CounterDelta(lsm + ".compactions")), "count"}},
      {"storage.compact_ms", {win.SumDeltaMs(lsm + ".compact_us"), "ms"}},
      {"storage.wal_bytes_per_byte",
       {static_cast<double>(win.CounterDelta("idea.wal.bytes_written")) /
            static_cast<double>(input_bytes),
        "ratio"}},
  };
}

// --- output oracle ------------------------------------------------------------

// What the output dataset must hold after a trial. Every planned reference
// update is applied by the end of each trial, so the final reference data,
// and with it every expected record, is the same for all trials of a run.
struct Oracle {
  std::vector<adm::Value> expected;  // by tweet id
  std::vector<bool> exact;           // false: hot country, enrichment may differ
  std::set<std::string> udf_fields;  // fields the UDF adds to a tweet
};

// Serial EnrichOne over the final reference data (the parsed tweet when there
// is no UDF), built on an Instance of its own before any trial runs.
Oracle BuildOracle(const WorkloadSpec& w, const Inputs& in) {
  SpanRecorder untimed(false);
  Instance db(MakeInstanceOptions());
  SetUpSchema(&db, w, in, &untimed, -1);
  const adm::Datatype* type = db.catalog().FindDatatype("TweetType");
  feed::JsonRecordParser parser(type);
  storage::CatalogAccessor accessor(&db.catalog());
  std::unique_ptr<sqlpp::EnrichmentPlan> plan;
  if (const workload::UseCaseSpec* uc = UseCase(w)) {
    std::shared_ptr<storage::LsmDataset> ref = RefDataset(&db, w);
    for (const adm::Value& row : in.updates) Check(ref->Upsert(row), "oracle update");
    auto compiled = sqlpp::EnrichmentPlan::Compile(
        db.udfs().FindSqlppShared(uc->function_name), &accessor, &db.udfs());
    Check(compiled.status(), "oracle plan");
    plan = std::move(compiled).value();
    Check(plan->Initialize(), "oracle plan init");
  }
  Oracle o;
  o.expected.reserve(in.tweets.size());
  for (const std::string& raw : in.tweets) {
    auto parsed = parser.Parse(raw);
    Check(parsed.status(), "oracle parse");
    adm::Value tweet = std::move(parsed).value();
    o.exact.push_back(plan == nullptr || !IsHotCountry(tweet.GetField("country")->AsString()));
    if (plan == nullptr) {
      o.expected.push_back(std::move(tweet));
      continue;
    }
    auto enriched = plan->EnrichOne(tweet);
    Check(enriched.status(), "oracle EnrichOne");
    adm::Value expected = std::move(enriched).value();
    Check(type->ValidateAndCoerce(&expected), "oracle coerce");
    for (const auto& [name, value] : expected.AsObject()) {
      if (tweet.GetField(name) == nullptr) o.udf_fields.insert(name);
    }
    o.expected.push_back(std::move(expected));
  }
  return o;
}

// Checks that the output dataset holds exactly the offered ids, each written
// once.
// Records of countries whose reference rows were never updated must equal
// the oracle's; the rest must keep every tweet field and carry each UDF
// field with the oracle's kind. Returns the number of wrong records.
uint64_t CheckOutputs(const storage::LsmDataset& out, const Oracle& o,
                      std::string* first_error) {
  uint64_t failed = 0;
  auto fail = [&](const std::string& why) {
    if (failed++ == 0) *first_error = why;
  };
  auto stored = out.Scan();
  std::vector<const adm::Value*> by_id(o.expected.size(), nullptr);
  for (const adm::Value& rec : *stored) {
    const adm::Value* id = rec.GetField("id");
    if (id == nullptr || !id->IsInt() || id->AsInt() < 0 ||
        static_cast<size_t>(id->AsInt()) >= by_id.size()) {
      fail("unexpected record " + rec.ToString().substr(0, 200));
      continue;
    }
    by_id[static_cast<size_t>(id->AsInt())] = &rec;
  }
  for (size_t i = 0; i < by_id.size(); ++i) {
    const adm::Value* got = by_id[i];
    const adm::Value& want = o.expected[i];
    if (got == nullptr) {
      fail("record " + std::to_string(i) + " missing");
      continue;
    }
    bool ok = o.exact[i] ? *got == want
                         : got->IsObject() && got->FieldCount() == want.FieldCount();
    if (ok && !o.exact[i]) {
      for (const auto& [name, value] : want.AsObject()) {
        const adm::Value* g = got->GetField(name);
        ok = g != nullptr &&
             (o.udf_fields.count(name) > 0 ? g->type() == value.type() : *g == value);
        if (!ok) break;
      }
    }
    if (!ok) fail("record " + std::to_string(i) + " wrong: " + got->ToString().substr(0, 300));
  }
  // Every write advances the sequence by one, so a record stored twice shows
  // as an extra write even though the upsert hides it from the scan.
  const uint64_t writes = out.CurrentSeq();
  if (writes > o.expected.size()) {
    const uint64_t extra = writes - o.expected.size();
    fail(std::to_string(extra) + " records written more than once");
    failed += extra - 1;
  }
  return failed;
}

// --- one trial ----------------------------------------------------------------

// Times are the program's CPU time unless named wall: CPU the benchmark's
// own threads spend outside calls into the program is taken off the
// process's CPU time. Reported CPU times are scaled by the reference work
// timed around the trial.
struct TrialResult {
  double setup_s = 0;  // Instance construction until the first record is visible
  double setup_wall_s = 0;
  double feed_ref_us = 0;   // median reference pass before and after the feed
  double query_ref_us = 0;  // the same around the queries
  double cpu_us_per_record = 0;  // first visible record until the drain
  double ingest_rps = 0;         // wall
  std::vector<double> lag_ms;       // wall, sorted
  std::vector<double> gen_late_ms;  // wall, sorted; open loop only
  std::vector<double> groupby_ms;  // CPU, one per timed repetition
  std::vector<double> lookup_ms;
  std::vector<double> groupby_wall_ms;
  std::vector<double> lookup_wall_ms;
  uint64_t queries = 0;
  uint64_t failed = 0;  // wrong records plus wrong query answers
  std::string first_error;
  std::vector<double> ref_upsert_us;  // sorted
  double read_block_ms_max = 0;
  double peak_rss_mb = 0;  // highest resident set sampled during the trial
  double storage_busy_us_per_record = 0;
  Metrics stages;
  std::string critical;

  double FeedScaled(double cpu) const { return perfbench::ScaleToNominal(cpu, feed_ref_us); }
  double QueryScaled(double cpu) const { return perfbench::ScaleToNominal(cpu, query_ref_us); }
};

// Runs the Figure 2 group-by and a primary-key lookup over the output
// dataset, each after one warm-up, and checks their answers.
void RunQueries(Instance* db, const WorkloadSpec& w, const Inputs& in, TrialResult* r) {
  const std::string out = OutputDataset(w);
  std::vector<int64_t> counts;
  for (const auto& [country, n] : in.country_counts) counts.push_back(n);
  std::sort(counts.rbegin(), counts.rend());
  const int64_t sixth = counts.size() > 5 ? counts[5] : 0;
  auto fail = [&](const std::string& why) {
    if (r->failed++ == 0) r->first_error = why;
  };
  // No benchmark thread runs now, so the process's CPU time is the query's.
  auto timed = [&](const std::string& query, std::vector<double>* cpu_ms,
                   std::vector<double>* wall_ms, bool warm_up) {
    const double t0 = NowUs();
    const double c0 = ProcessCpuUs();
    auto rows = db->ExecuteSqlpp(query);
    const double c1 = ProcessCpuUs();
    const double t1 = NowUs();
    if (!warm_up) {
      cpu_ms->push_back((c1 - c0) / 1000);
      wall_ms->push_back((t1 - t0) / 1000);
    }
    return rows;
  };
  for (size_t rep = 0; rep <= kQueryReps; ++rep) {
    auto rows = timed("SELECT t.country AS country, count(*) AS num FROM " + out +
                          " t GROUP BY t.country ORDER BY count(*) DESC LIMIT 5;",
                      &r->groupby_ms, &r->groupby_wall_ms, rep == 0);
    Check(rows.status(), "group-by query");
    bool ok = rows->size() == std::min<size_t>(5, counts.size());
    int64_t prev = INT64_MAX;
    for (const adm::Value& row : *rows) {
      if (!ok) break;
      const int64_t num = row.GetField("num")->AsInt();
      auto it = in.country_counts.find(row.GetField("country")->AsString());
      ok = it != in.country_counts.end() && it->second == num && num <= prev && num >= sixth;
      prev = num;
    }
    if (!ok) fail("group-by answer wrong");

    const int64_t id = in.lookup_ids[rep];
    rows = timed("SELECT VALUE t FROM " + out + " t WHERE t.id = " + std::to_string(id) + ";",
                 &r->lookup_ms, &r->lookup_wall_ms, rep == 0);
    Check(rows.status(), "lookup query");
    if (rows->size() != 1 || !(*(*rows)[0].GetField("id") == adm::Value::MakeInt(id))) {
      fail("lookup of id " + std::to_string(id) + " wrong");
    }
    r->queries += 2;
  }
}

// One whole run of the real pipeline on a fresh Instance: set-up, feed,
// drain, oracle, queries.
TrialResult RunTrial(const WorkloadSpec& w, const Inputs& in, const Oracle& oracle,
                     size_t trial, SpanRecorder* spans, perfbench::ReferenceWork* ref) {
  TrialResult r;
  // Reference passes on either side of the feed and of the queries, while
  // the program is idle: how fast the host ran meanwhile.
  auto reference = [ref] {
    std::vector<double> passes;
    for (int i = 0; i < kReferencePasses; ++i) passes.push_back(ref->RunUs());
    return passes;
  };
  const std::vector<double> before = reference();
  const workload::UseCaseSpec* uc = UseCase(w);
  const uint64_t total = in.tweets.size();
  const uint64_t batch = trial + 1;
  // A fresh feed name per trial keeps per-feed series (and their high
  // watermarks) apart in the process-wide registry.
  const Names names{"BenchFeed" + std::to_string(trial), OutputDataset(w),
                    uc != nullptr ? uc->function_name : ""};
  const int64_t root = spans->Begin("trial." + w.name, -1, batch);
  const double t_setup = NowUs();
  const double cpu_setup = ProcessCpuUs();
  const int64_t setup_span = spans->Begin("setup", root, batch);
  auto db = std::make_unique<Instance>(MakeInstanceOptions());
  SetUpSchema(db.get(), w, in, spans, setup_span);
  {
    perfbench::ScopedSpan s(spans, "feed.ddl", setup_span, batch);
    Check(db->ExecuteScript("CREATE FEED " + names.feed +
                            " WITH {\"type-name\": \"TweetType\", \"format\": \"JSON\", "
                            "\"batch-size\": \"" + std::to_string(w.batch_size) + "\"};" +
                            "CONNECT FEED " + names.feed + " TO DATASET " + names.out +
                            (uc != nullptr ? " APPLY FUNCTION " + uc->function_name : "") +
                            ";"),
          "feed DDL");
  }
  TweetSource source(&in.tweets, w.offered_rps);
  Check(db->SetFeedAdapterFactory(
            names.feed,
            [&source](size_t, size_t) -> Result<std::unique_ptr<feed::FeedAdapter>> {
              return std::unique_ptr<feed::FeedAdapter>(
                  std::make_unique<feed::GeneratorAdapter>(
                      [&source](std::string* out) { return source.Next(out); }));
            }),
        "attach adapter");
  std::shared_ptr<storage::LsmDataset> out_ds = db->catalog().FindDataset(names.out);
  std::shared_ptr<storage::LsmDataset> ref_ds = RefDataset(db.get(), w);
  RegistryWindow win;
  OpenWindow(names, &win);

  // Visibility poller: when did the output dataset's sequence reach each
  // count, and how long did reading it block. Both benchmark threads report
  // the CPU time they spend outside calls into the program.
  std::vector<perfbench::VisiblePoint> curve;
  std::atomic<uint64_t> visible{0};
  std::atomic<double> first_visible_us{0};
  std::atomic<double> first_visible_cpu_us{0};  // program CPU time by then
  std::atomic<double> poller_cpu_us{0};
  std::atomic<double> updater_idle_cpu_us{0};
  std::mutex first_mu;
  std::condition_variable first_cv;
  std::atomic<bool> stop_poller{false};
  std::atomic<bool> stop_updater{false};
  double read_block_us_max = 0;
  double peak_rss_mb = RssMb();
  std::thread poller([&] {
    const double own_cpu0 = ThreadCpuUs();
    uint64_t polls = 0;
    curve.push_back({NowUs(), 0});
    uint64_t last = 0;
    while (true) {
      const bool last_round = stop_poller.load(std::memory_order_acquire);
      const double t0 = NowUs();
      const uint64_t seq = out_ds->CurrentSeq();
      const double t1 = NowUs();
      read_block_us_max = std::max(read_block_us_max, t1 - t0);
      if (t1 - t0 >= 1000) spans->Add("storage.read_block", t0, t1, root, batch);
      if (seq != last) {
        if (last == 0) {
          first_visible_cpu_us.store(ProcessCpuUs() - (ThreadCpuUs() - own_cpu0) -
                                     updater_idle_cpu_us.load(std::memory_order_acquire) -
                                     source.wait_cpu_us());
          {
            std::lock_guard<std::mutex> lock(first_mu);
            first_visible_us.store(t1, std::memory_order_release);
          }
          first_cv.notify_all();
        }
        curve.push_back({t1, seq});
        last = seq;
        visible.store(seq, std::memory_order_release);
      }
      if (++polls % kRssEveryPolls == 0) peak_rss_mb = std::max(peak_rss_mb, RssMb());
      if (seq >= total || last_round) break;
      std::this_thread::sleep_for(kPollInterval);
    }
    poller_cpu_us.store(ThreadCpuUs() - own_cpu0, std::memory_order_release);
  });
  // Reference updater: upserts tied to record progress, not wall time.
  Status update_error;
  std::thread updater([&] {
    if (ref_ds == nullptr) return;
    const std::atomic<uint64_t>& progress =
        w.updates_follow_stored ? visible : source.offered();
    const double own_cpu0 = ThreadCpuUs();
    double upsert_cpu_us = 0;
    size_t done = 0;
    while (done < in.updates.size()) {
      const bool last_round = stop_updater.load(std::memory_order_acquire);
      const size_t target = std::min(
          in.updates.size(),
          static_cast<size_t>(static_cast<double>(progress.load(std::memory_order_acquire)) *
                              w.updates_per_record));
      for (; done < target; ++done) {
        const double c0 = ThreadCpuUs();
        const double t0 = NowUs();
        Status st = ref_ds->Upsert(in.updates[done]);
        const double t1 = NowUs();
        upsert_cpu_us += ThreadCpuUs() - c0;
        if (!st.ok()) {
          update_error = st;
          return;
        }
        r.ref_upsert_us.push_back(t1 - t0);
        spans->Add("storage.ref_upsert", t0, t1, root, batch);
      }
      updater_idle_cpu_us.store(ThreadCpuUs() - own_cpu0 - upsert_cpu_us,
                                std::memory_order_release);
      if (last_round) break;
      std::this_thread::sleep_for(kPollInterval);
    }
  });
  // The poller stops first so the updater's last round sees the final
  // progress and applies every planned update.
  auto finish_threads = [&] {
    stop_poller.store(true, std::memory_order_release);
    poller.join();
    stop_updater.store(true, std::memory_order_release);
    updater.join();
  };

  {
    perfbench::ScopedSpan s(spans, "feed.start", setup_span, batch);
    Status started = db->ExecuteSqlpp("START FEED " + names.feed + ";").status();
    if (!started.ok()) {
      finish_threads();
      Die("START FEED", started);
    }
  }
  bool first_seen = false;
  {
    // Blocks without using CPU, so set-up CPU time is the program's.
    std::unique_lock<std::mutex> lock(first_mu);
    first_seen = first_cv.wait_for(lock, std::chrono::seconds(120), [&] {
      return first_visible_us.load(std::memory_order_acquire) != 0;
    });
  }
  if (!first_seen) {
    finish_threads();
    Die("first record", Status::TimedOut("no record became visible"));
  }
  spans->End(setup_span);
  r.setup_wall_s = (first_visible_us.load() - t_setup) / 1e6;
  r.setup_s = (first_visible_cpu_us.load() - cpu_setup) / 1e6;

  Result<feed::FeedRuntimeStats> stats = [&] {
    perfbench::ScopedSpan s(spans, "feed.drain", root, batch);
    return db->WaitForFeed(names.feed);
  }();
  const double drained_cpu_us = ProcessCpuUs();
  finish_threads();
  Check(stats.status(), "feed");
  Check(update_error, "reference update");

  r.ingest_rps = perfbench::VisibleRate(curve, total);
  // The window of ingest_rps: from the first visible record to the drain.
  uint64_t first_count = 0;
  for (const perfbench::VisiblePoint& p : curve) {
    if (p.count > 0) {
      first_count = p.count;
      break;
    }
  }
  const double feed_cpu_us = drained_cpu_us - poller_cpu_us.load() -
                             updater_idle_cpu_us.load() - source.wait_cpu_us() -
                             first_visible_cpu_us.load();
  r.cpu_us_per_record =
      first_count < total ? feed_cpu_us / static_cast<double>(total - first_count) : 0;
  const std::vector<double>& due = w.offered_rps > 0 ? source.due_us() : source.emit_us();
  for (double lag : perfbench::LagFromVisibility(curve, due)) r.lag_ms.push_back(lag / 1000);
  std::sort(r.lag_ms.begin(), r.lag_ms.end());
  if (w.offered_rps > 0) {
    for (size_t i = 0; i < total; ++i) {
      r.gen_late_ms.push_back((source.emit_us()[i] - source.due_us()[i]) / 1000);
    }
    std::sort(r.gen_late_ms.begin(), r.gen_late_ms.end());
  }
  std::sort(r.ref_upsert_us.begin(), r.ref_upsert_us.end());
  r.read_block_ms_max = read_block_us_max / 1000;
  r.peak_rss_mb = peak_rss_mb;
  r.stages = StageMetrics(names, win, stats->wall_micros_total / 1000, in.input_bytes,
                          &r.critical);
  for (const auto& [name, value] : r.stages) {
    if (name == "feed.storage_busy_ms") {
      r.storage_busy_us_per_record = value.first * 1000 / static_cast<double>(total);
    }
  }
  {
    perfbench::ScopedSpan s(spans, "oracle", root, batch);
    r.failed = CheckOutputs(*out_ds, oracle, &r.first_error);
  }
  const std::vector<double> between = reference();
  {
    perfbench::ScopedSpan s(spans, "sqlpp.queries", root, batch);
    RunQueries(db.get(), w, in, &r);
  }
  const std::vector<double> after = reference();
  std::vector<double> around = between;
  around.insert(around.end(), before.begin(), before.end());
  r.feed_ref_us = perfbench::Median(around);
  around = between;
  around.insert(around.end(), after.begin(), after.end());
  r.query_ref_us = perfbench::Median(around);
  r.peak_rss_mb = std::max(r.peak_rss_mb, RssMb());
  spans->End(root);
  {
    perfbench::ScopedSpan s(spans, "instance.teardown", -1, batch);
    db.reset();
    // Hand the freed heap back to the system before the next trial.
    malloc_trim(0);
  }
  return r;
}

// --- serial pass through each layer's public calls -------------------------

struct LayerPassResult {
  Metrics metrics;
  double apply_us = 0;
};

LayerPassResult RunLayerPass(const WorkloadSpec& w, const Inputs& in, SpanRecorder* spans) {
  SpanRecorder untimed(false);
  Instance db(MakeInstanceOptions());
  SetUpSchema(&db, w, in, &untimed, -1);
  const workload::UseCaseSpec* uc = UseCase(w);
  const adm::Datatype* type = db.catalog().FindDatatype("TweetType");
  feed::JsonRecordParser parser(type);
  storage::CatalogAccessor accessor(&db.catalog(), /*cache_snapshots=*/true);
  std::unique_ptr<sqlpp::EnrichmentPlan> plan;
  if (uc != nullptr) {
    auto compiled = sqlpp::EnrichmentPlan::Compile(
        db.udfs().FindSqlppShared(uc->function_name), &accessor, &db.udfs());
    Check(compiled.status(), "layer-pass plan");
    plan = std::move(compiled).value();
  }
  std::shared_ptr<storage::LsmDataset> ref_ds = RefDataset(&db, w);
  runtime::IntakePartitionHolder intake({"perfbench", "intake", 0});
  runtime::StoragePartitionHolder storage_holder({"perfbench", "storage", 0});
  storage::LsmDataset out("PerfbenchLayerPass", *type, "id");

  std::map<std::string, double> sum_us;
  std::vector<double> refresh_us;
  size_t frames = 0;
  size_t updates_done = 0;
  const size_t n = std::min(in.tweets.size(), kLayerPassRecords);
  const int64_t pass = spans->Begin("layer_pass." + w.name);
  for (size_t b0 = 0; b0 < n; b0 += w.batch_size) {
    const size_t b1 = std::min(n, b0 + w.batch_size);
    const uint64_t batch = b0 / w.batch_size + 1;
    const int64_t bspan = spans->Begin("batch", pass, batch);
    auto timed = [&](const char* name, auto&& fn) {
      const double t0 = NowUs();
      fn();
      const double t1 = NowUs();
      spans->Add(name, t0, t1, bspan, batch);
      sum_us[name] += t1 - t0;
      return t1 - t0;
    };
    std::vector<std::string> raw;
    timed("runtime.intake_holder", [&] {
      for (size_t i = b0; i < b1; ++i) Check(intake.Push(std::string(in.tweets[i])), "push");
      intake.PullBatch(b1 - b0, &raw);
    });
    std::vector<adm::Value> parsed;
    parsed.reserve(raw.size());
    timed("feed.parse", [&] {
      for (const std::string& r : raw) {
        auto rec = parser.Parse(r);
        Check(rec.status(), "parse");
        parsed.push_back(std::move(rec).value());
      }
    });
    adm::Array enriched;
    if (plan != nullptr) {
      refresh_us.push_back(timed("sqlpp.refresh", [&] {
        accessor.BeginEpoch();
        Check(plan->Initialize(), "refresh");
      }));
      timed("sqlpp.enrich", [&] { Check(plan->EnrichBatch(parsed, &enriched), "enrich"); });
    } else {
      enriched = std::move(parsed);
    }
    std::vector<runtime::Frame> batch_frames;
    timed("runtime.frame_build",
          [&] { batch_frames = runtime::FrameRecords(enriched, feed::FeedConfig().frame_bytes); });
    for (runtime::Frame& frame : batch_frames) {
      runtime::Frame popped;
      timed("runtime.storage_holder", [&] {
        Check(storage_holder.Push(std::move(frame)), "frame push");
        storage_holder.Pop(&popped);
      });
      std::vector<adm::Value> decoded;
      timed("runtime.frame_decode", [&] {
        runtime::FrameView view(popped);
        for (size_t i = 0; i < view.size(); ++i) {
          auto rec = view[i].Decode();
          Check(rec.status(), "decode");
          decoded.push_back(std::move(rec).value());
        }
      });
      timed("storage.apply", [&] {
        for (adm::Value& rec : decoded) Check(out.Upsert(std::move(rec)), "apply");
      });
      timed("storage.wal_flush", [&] { Check(out.FlushWal(), "wal flush"); });
      ++frames;
    }
    spans->End(bspan);
    // The workload's reference update ratio, applied between batches.
    if (ref_ds != nullptr) {
      const size_t target = std::min(
          in.updates.size(),
          static_cast<size_t>(static_cast<double>(b1) * w.updates_per_record));
      for (; updates_done < target; ++updates_done) {
        Check(ref_ds->Upsert(in.updates[updates_done]), "reference update");
      }
    }
  }
  spans->End(pass);

  double batch_us = 0, batch_self_us = 0;
  const std::vector<perfbench::SpanRecord> all = spans->Snapshot();
  const std::vector<double> self = perfbench::SelfTimes(all);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent == pass && all[i].name == "batch") {
      batch_us += all[i].end_us - all[i].start_us;
      batch_self_us += self[i];
    }
  }
  const double records = static_cast<double>(n);
  double refresh_steady = 0;
  for (size_t i = 1; i < refresh_us.size(); ++i) refresh_steady += refresh_us[i];
  if (refresh_us.size() > 1) refresh_steady /= static_cast<double>(refresh_us.size() - 1);
  LayerPassResult r;
  r.apply_us = sum_us["storage.apply"] / records;
  r.metrics = {
      {"feed.parse_us", {sum_us["feed.parse"] / records, "us"}},
      {"runtime.frame_us",
       {(sum_us["runtime.frame_build"] + sum_us["runtime.frame_decode"]) / records, "us"}},
      {"runtime.holder_us",
       {(sum_us["runtime.intake_holder"] + sum_us["runtime.storage_holder"]) / records, "us"}},
      {"sqlpp.refresh_us", {refresh_steady, "us"}},
      {"sqlpp.first_build_ms", {refresh_us.empty() ? 0 : refresh_us[0] / 1000, "ms"}},
      {"sqlpp.enrich_us", {sum_us["sqlpp.enrich"] / records, "us"}},
      {"storage.apply_us", {r.apply_us, "us"}},
      {"storage.wal_flush_us", {sum_us["storage.wal_flush"] / static_cast<double>(frames), "us"}},
      {"layer_pass.serial_rps", {records * 1e6 / batch_us, "records/s"}},
      {"layer_pass.coverage", {1 - batch_self_us / batch_us, "ratio"}},
  };
  return r;
}

// --- reporting ------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : " ") + JsonNumber(v);
  return out;
}

void PrintTail(const char* what, const std::vector<double>& sorted, const char* unit) {
  const perfbench::Tail tail = perfbench::SupportedTail(sorted);
  std::printf("  %s: p50 %s %s, %s %s %s (n=%zu)\n", what,
              JsonNumber(perfbench::PercentileSorted(sorted, 0.5)).c_str(), unit,
              tail.Label().c_str(), JsonNumber(tail.value).c_str(), unit, tail.samples);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
            JsonNumber(metrics[i].second.first) + ", \"unit\": \"" + metrics[i].second.second +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportTrial(const WorkloadSpec& w, size_t trial, const TrialResult& r) {
  std::printf("trial %zu: reference pass %.0f us around the feed, %.0f us around the "
              "queries; unscaled: setup %.4f s CPU (%.4f s wall), %.3f us CPU per record, "
              "%.1f records/s wall, group-by %s ms CPU (%s wall), lookup %s ms CPU (%s wall); "
              "critical stage %s, %llu wrong\n",
              trial, r.feed_ref_us, r.query_ref_us, r.setup_s,
              r.setup_wall_s, r.cpu_us_per_record, r.ingest_rps, Join(r.groupby_ms).c_str(),
              Join(r.groupby_wall_ms).c_str(), Join(r.lookup_ms).c_str(),
              Join(r.lookup_wall_ms).c_str(), r.critical.c_str(),
              static_cast<unsigned long long>(r.failed));
  PrintTail("lag_ms", r.lag_ms, "ms");
  if (w.offered_rps > 0) PrintTail("generator late ms", r.gen_late_ms, "ms");
  if (!r.ref_upsert_us.empty()) PrintTail("ref upsert us", r.ref_upsert_us, "us");
  if (r.failed > 0) std::printf("  first error: %s\n", r.first_error.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a->trace = std::atoi(v);
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && (a->trace == 0 || !a->trace_out.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload ingest|enrich|fresh --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> w = FindWorkload(args.workload);
  if (!w) {
    std::fprintf(stderr, "pipeline_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Inputs in = MakeInputs(*w, args.seed);
  const Oracle oracle = BuildOracle(*w, in);
  malloc_trim(0);
  perfbench::ReferenceWork ref(args.seed);
  std::printf("workload %s: %zu tweets (%zu bytes) per trial, batch-size %zu, %s, seed %llu\n",
              w->name.c_str(), in.tweets.size(), in.input_bytes, w->batch_size,
              w->offered_rps > 0 ? ("open loop at " + JsonNumber(w->offered_rps) + " records/s")
                                       .c_str()
                                 : "closed loop",
              static_cast<unsigned long long>(args.seed));

  uint64_t attempted = 0, failed = 0;
  auto account = [&](const TrialResult& r) {
    attempted += in.tweets.size() + r.queries;
    failed += r.failed;
  };
  Metrics metrics;
  if (args.trace == 0) {
    std::vector<TrialResult> trials;
    SpanRecorder off(false);
    // Start another trial only while it is expected to end within the
    // measuring time.
    const double t0 = NowUs();
    while (trials.empty() ||
           (NowUs() - t0) * static_cast<double>(trials.size() + 1) /
                   static_cast<double>(trials.size()) <=
               args.seconds * 1e6) {
      trials.push_back(RunTrial(*w, in, oracle, trials.size(), &off, &ref));
      ReportTrial(*w, trials.size() - 1, trials.back());
      account(trials.back());
    }
    // Each metric is the median of its samples from all trials: one per
    // trial, or one per timed repetition for the queries. The reported times
    // are the program's CPU times scaled by the reference work (see
    // host_speed.h): a shared host's busy neighbours stretch wall and CPU
    // times alike, by up to 2x, and the scaling takes most of that out. The
    // unscaled CPU and wall-clock figures are printed beside them.
    std::printf("medians over trials (samples follow each name):\n");
    auto samples_of = [&](auto&& samples) {
      std::vector<double> v;
      for (const TrialResult& r : trials) samples(r, &v);
      return v;
    };
    auto show = [](const char* name, const char* unit, const std::vector<double>& v) {
      std::printf("%s [%s] n=%zu: %s\n", name, unit, v.size(), Join(v).c_str());
      std::printf("  median %s %s\n", JsonNumber(perfbench::Median(v)).c_str(), unit);
    };
    auto metric = [&](const char* name, const char* unit, auto&& samples) {
      const std::vector<double> v = samples_of(samples);
      show(name, unit, v);
      metrics.push_back({name, {perfbench::Median(v), unit}});
    };
    auto each = [](const std::vector<double>& values, double scale, std::vector<double>* v) {
      for (double x : values) v->push_back(x * scale);
    };
    metric("cpu_us_per_record", "us", [](const TrialResult& r, std::vector<double>* v) {
      v->push_back(r.FeedScaled(r.cpu_us_per_record));
    });
    metric("query_groupby_cpu_ms", "ms", [&](const TrialResult& r, std::vector<double>* v) {
      each(r.groupby_ms, r.QueryScaled(1), v);
    });
    metric("query_lookup_cpu_ms", "ms", [&](const TrialResult& r, std::vector<double>* v) {
      each(r.lookup_ms, r.QueryScaled(1), v);
    });
    metric("setup_s", "s",
           [](const TrialResult& r, std::vector<double>* v) { v->push_back(r.FeedScaled(r.setup_s)); });
    std::printf("not part of the result:\n");
    show("reference_pass_us", "us", samples_of([](const TrialResult& r, std::vector<double>* v) {
           v->push_back(r.feed_ref_us);
         }));
    show("unscaled cpu_us_per_record", "us",
         samples_of([](const TrialResult& r, std::vector<double>* v) {
           v->push_back(r.cpu_us_per_record);
         }));
    show("unscaled setup_s", "s", samples_of([](const TrialResult& r, std::vector<double>* v) {
           v->push_back(r.setup_s);
         }));
    show("wall ingest_rps", "records/s",
         samples_of([](const TrialResult& r, std::vector<double>* v) {
           v->push_back(r.ingest_rps);
         }));
    show("wall query_groupby_ms", "ms", samples_of([&](const TrialResult& r, std::vector<double>* v) {
           each(r.groupby_wall_ms, 1, v);
         }));
    show("wall query_lookup_ms", "ms", samples_of([&](const TrialResult& r, std::vector<double>* v) {
           each(r.lookup_wall_ms, 1, v);
         }));
    show("wall setup_s", "s", samples_of([](const TrialResult& r, std::vector<double>* v) {
           v->push_back(r.setup_wall_s);
         }));
    // Lag percentiles pool every record of every trial: a trial's p99 rests
    // on its one or two longest storage stalls, the pool on all.
    std::vector<double> lags;
    for (const TrialResult& r : trials) lags.insert(lags.end(), r.lag_ms.begin(), r.lag_ms.end());
    std::sort(lags.begin(), lags.end());
    PrintTail("wall lag_ms", lags, "ms");
    // Resident memory creeps up by tens of MB with each Instance a process
    // constructs and destroys, so only the first trial shows what one
    // Instance needs.
    std::printf("peak_rss_mb of the first trial: %s\n",
                JsonNumber(trials.front().peak_rss_mb).c_str());
    metrics.push_back({"peak_rss_mb", {trials.front().peak_rss_mb, "MB"}});
  } else {
    // Untraced and traced trials of the same inputs in ABBA order, so a
    // drifting host favours neither side; the difference in CPU time per
    // record is the tracing overhead. The first traced trial supplies the
    // stage metrics.
    SpanRecorder off(false);
    SpanRecorder spans(true);
    std::vector<TrialResult> trials;
    double plain_cpu = 0, traced_cpu = 0;
    for (SpanRecorder* recorder : {&off, &spans, &spans, &off}) {
      trials.push_back(RunTrial(*w, in, oracle, trials.size(), recorder, &ref));
      ReportTrial(*w, trials.size() - 1, trials.back());
      account(trials.back());
      const TrialResult& r = trials.back();
      (recorder == &off ? plain_cpu : traced_cpu) += r.FeedScaled(r.cpu_us_per_record);
    }
    const TrialResult& traced = trials[1];
    const LayerPassResult pass = RunLayerPass(*w, in, &spans);
    metrics = traced.stages;
    metrics.insert(metrics.end(), pass.metrics.begin(), pass.metrics.end());
    metrics.push_back({"storage.ref_upsert_us_p50",
                       {perfbench::PercentileSorted(traced.ref_upsert_us, 0.5), "us"}});
    metrics.push_back({"storage.ref_upsert_us_p99",
                       {perfbench::PercentileSorted(traced.ref_upsert_us, 0.99), "us"}});
    metrics.push_back({"storage.read_block_ms_max", {traced.read_block_ms_max, "ms"}});
    metrics.push_back(
        {"storage.contention_x", {traced.storage_busy_us_per_record / pass.apply_us, "x"}});
    metrics.push_back({"bench.gen_late_ms_p99",
                       {perfbench::PercentileSorted(traced.gen_late_ms, 0.99), "ms"}});
    metrics.push_back({"trace.overhead_pct", {(traced_cpu - plain_cpu) / plain_cpu * 100, "%"}});
    std::printf("critical stage: %s\n", traced.critical.c_str());
    for (const auto& [name, value] : metrics) {
      std::printf("  %-28s %14s %s\n", name.c_str(), JsonNumber(value.first).c_str(),
                  value.second.c_str());
    }
    std::string other = "{\"workload\": \"" + w->name + "\", \"seed\": " +
                        std::to_string(args.seed) + ", \"critical_stage\": \"" +
                        traced.critical + "\", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      other += (i > 0 ? ", \"" : "\"") + metrics[i].first + "\": " +
               JsonNumber(metrics[i].second.first);
    }
    other += "}}";
    std::ofstream dump(args.trace_out);
    dump << perfbench::ChromeTraceJson(spans.Snapshot(), other);
    if (!dump.good()) {
      std::fprintf(stderr, "pipeline_bench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    std::printf("span dump: %s\n", args.trace_out.c_str());
  }
  std::printf("failed_frac = %s (%llu of %llu records and queries wrong)\n",
              JsonNumber(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
