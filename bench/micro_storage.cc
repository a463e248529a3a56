// Micro-benchmarks: LSM dataset operations and index probes.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "storage/lsm_dataset.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"

namespace {

using idea::adm::Value;
using idea::storage::DatasetOptions;
using idea::storage::LsmDataset;

std::unique_ptr<LsmDataset> LoadedDataset(size_t n) {
  auto ds = std::make_unique<LsmDataset>(
      "bench",
      idea::adm::Datatype("T", {{"monument_id", idea::adm::FieldType::kString, false}}),
      "monument_id");
  for (auto& rec : idea::workload::GenMonuments(n, 7)) {
    (void)ds->Upsert(std::move(rec));
  }
  return ds;
}

void BM_LsmUpsert(benchmark::State& state) {
  LsmDataset ds("bench",
                idea::adm::Datatype("T", {{"id", idea::adm::FieldType::kInt64, false}}),
                "id");
  int64_t i = 0;
  for (auto _ : state) {
    Value rec = Value::MakeObject({{"id", Value::MakeInt(i % 10000)},
                                   {"v", Value::MakeInt(i)}});
    benchmark::DoNotOptimize(ds.Upsert(std::move(rec)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmUpsert);

// Tweet-sized records (about 20 heap allocations each) upserted into a fresh
// dataset per iteration, through several memtable flushes and at least one
// full-merge compaction. Copying the pre-generated batch and tearing the
// dataset down stay outside the timed region.
void BM_LsmUpsertTweets(benchmark::State& state) {
  constexpr size_t kTweets = 16000;
  idea::workload::TweetGenerator gen;
  std::vector<Value> tweets;
  tweets.reserve(kTweets);
  for (size_t i = 0; i < kTweets; ++i) tweets.push_back(gen.NextValue());
  DatasetOptions opts;
  opts.memtable_bytes = 1u << 20;
  opts.compaction_threshold = 4;
  const idea::adm::Datatype type("TweetType",
                                 {{"id", idea::adm::FieldType::kInt64, false}});
  std::unique_ptr<LsmDataset> ds;
  std::vector<Value> batch;
  uint64_t flushes = 0, compactions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ds = std::make_unique<LsmDataset>("bench_tweets", type, "id", opts);
    batch = tweets;
    state.ResumeTiming();
    for (Value& t : batch) benchmark::DoNotOptimize(ds->Upsert(std::move(t)));
    state.PauseTiming();
    flushes += ds->stats().flushes;
    compactions += ds->stats().compactions;
    ds.reset();
    batch.clear();
    state.ResumeTiming();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["flushes"] = static_cast<double>(flushes) / iters;
  state.counters["compactions"] = static_cast<double>(compactions) / iters;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kTweets));
}
BENCHMARK(BM_LsmUpsertTweets)->Unit(benchmark::kMillisecond);

void BM_LsmPointLookup(benchmark::State& state) {
  auto ds = LoadedDataset(5000);
  int64_t i = 0;
  for (auto _ : state) {
    char key[16];
    std::snprintf(key, sizeof(key), "M%07lld", static_cast<long long>(i++ % 5000));
    benchmark::DoNotOptimize(ds->Get(Value::MakeString(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmPointLookup);

void BM_LsmScan(benchmark::State& state) {
  auto ds = LoadedDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto snap = ds->Scan();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LsmScan)->Arg(1000)->Arg(5000);

void BM_RtreeProbe(benchmark::State& state) {
  auto ds = LoadedDataset(static_cast<size_t>(state.range(0)));
  (void)ds->CreateIndex("loc", "monument_location", "rtree");
  idea::Rng rng(3);
  for (auto _ : state) {
    double x = rng.NextDouble() * 180 - 90;
    double y = rng.NextDouble() * 360 - 180;
    std::vector<Value> out;
    benchmark::DoNotOptimize(
        ds->ProbeIndexMbr("monument_location",
                          {{x - 1.5, y - 1.5}, {x + 1.5, y + 1.5}}, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtreeProbe)->Arg(1000)->Arg(5000);

void BM_BtreeProbe(benchmark::State& state) {
  auto ds = std::make_unique<LsmDataset>(
      "bench",
      idea::adm::Datatype("T", {{"wid", idea::adm::FieldType::kString, false}}), "wid");
  for (auto& rec : idea::workload::GenSensitiveWords(2000, 200, 5)) {
    (void)ds->Upsert(std::move(rec));
  }
  (void)ds->CreateIndex("byCountry", "country", "btree");
  idea::Rng rng(4);
  for (auto _ : state) {
    std::vector<Value> out;
    benchmark::DoNotOptimize(ds->ProbeIndexEquals(
        "country", Value::MakeString(idea::workload::CountryCode(rng.NextBelow(200))),
        &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeProbe);

void BM_WalAppendFlush(benchmark::State& state) {
  idea::storage::Wal wal;
  int64_t i = 0;
  for (auto _ : state) {
    idea::storage::WalRecord rec;
    rec.type = idea::storage::WalRecordType::kUpsert;
    rec.seqno = static_cast<uint64_t>(i);
    rec.key = Value::MakeInt(i);
    rec.record = Value::MakeObject({{"id", Value::MakeInt(i)}});
    benchmark::DoNotOptimize(wal.Append(rec));
    if (++i % 420 == 0) benchmark::DoNotOptimize(wal.Flush());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendFlush);

}  // namespace

BENCHMARK_MAIN();
