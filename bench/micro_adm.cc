// Micro-benchmarks: ADM value plumbing — JSON parse/print, binary serde,
// frame encode/decode, hashing/compare (google-benchmark).
#include <benchmark/benchmark.h>

#include "adm/json.h"
#include "adm/serde.h"
#include "feed/feed.h"
#include "runtime/frame.h"
#include "workload/tweets.h"

namespace {

using idea::adm::Value;

std::string SampleTweetJson() {
  idea::workload::TweetGenerator gen({.seed = 1, .country_domain = 100});
  return gen.NextJson();
}

Value SampleTweet() {
  idea::workload::TweetGenerator gen({.seed = 1, .country_domain = 100});
  return gen.NextValue();
}

void BM_JsonParseTweet(benchmark::State& state) {
  std::string json = SampleTweetJson();
  for (auto _ : state) {
    auto v = idea::adm::ParseJson(json);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * json.size()));
}
BENCHMARK(BM_JsonParseTweet);

void BM_JsonPrintTweet(benchmark::State& state) {
  Value v = SampleTweet();
  for (auto _ : state) {
    std::string s = idea::adm::PrintJson(v);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_JsonPrintTweet);

void BM_SerializeTweet(benchmark::State& state) {
  Value v = SampleTweet();
  for (auto _ : state) {
    auto bytes = idea::adm::SerializeToBytes(v);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_SerializeTweet);

void BM_DeserializeTweet(benchmark::State& state) {
  auto bytes = idea::adm::SerializeToBytes(SampleTweet());
  for (auto _ : state) {
    auto v = idea::adm::DeserializeFromBytes(bytes);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_DeserializeTweet);

void BM_FrameRoundTrip(benchmark::State& state) {
  std::vector<Value> records;
  idea::workload::TweetGenerator gen({.seed = 2, .country_domain = 100});
  for (int64_t i = 0; i < state.range(0); ++i) records.push_back(gen.NextValue());
  // The computing job's framing and the storage job's record-at-a-time
  // view decode, at the feed's default frame size.
  const size_t frame_bytes = idea::feed::FeedConfig().frame_bytes;
  for (auto _ : state) {
    for (const auto& f : idea::runtime::FrameRecords(records, frame_bytes)) {
      idea::runtime::FrameView view(f);
      for (size_t i = 0; i < view.size(); ++i) {
        auto v = view[i].Decode();
        benchmark::DoNotOptimize(v);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(32)->Arg(420);

void BM_ValueHash(benchmark::State& state) {
  Value v = SampleTweet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Value::Hash(v));
  }
}
BENCHMARK(BM_ValueHash);

void BM_ValueCompare(benchmark::State& state) {
  Value a = SampleTweet();
  Value b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Value::Compare(a, b));
  }
}
BENCHMARK(BM_ValueCompare);

}  // namespace

BENCHMARK_MAIN();
