// Micro-benchmarks: enrichment access paths (hash probe vs index nested
// loop vs scan), plan state refresh (no-op / delta / full rebuild — the
// per-computing-job refresh cost), and partition-holder queue throughput.
//
// Besides the Google-benchmark suite, `micro_enrichment --smoke` runs a quick
// delta-vs-full-rebuild ablation at a 1% per-batch update rate, verifies the
// two paths enrich identically, and appends a machine-readable row to
// BENCH_fig26.json / BENCH_fig27.json (the refresh-period and update-rate
// figures the ablation annotates). The same row is emitted after a full
// benchmark run.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "runtime/frame.h"
#include "runtime/partition_holder.h"
#include "sqlpp/enrichment_plan.h"
#include "sqlpp/parser.h"
#include "storage/catalog.h"
#include "workload/native_udfs.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/usecases.h"

namespace {

using namespace idea;

class NoFns : public sqlpp::FunctionResolver {
 public:
  const sqlpp::SqlppFunctionDef* FindSqlppFunction(const std::string&) const override {
    return nullptr;
  }
  sqlpp::NativeFunctionHandle* FindNativeFunction(const std::string&) const override {
    return nullptr;
  }
};

struct UseCaseFixture {
  storage::Catalog catalog;
  std::unique_ptr<storage::CatalogAccessor> accessor;
  NoFns fns;
  std::shared_ptr<const sqlpp::SqlppFunctionDef> def;
  std::vector<adm::Value> tweets;

  explicit UseCaseFixture(workload::UseCaseId id, const std::string& fn_ddl = "") {
    accessor = std::make_unique<storage::CatalogAccessor>(&catalog, false);
    const auto& uc = workload::GetUseCase(id);
    auto stmts_r = sqlpp::ParseScript(uc.ddl);
    std::vector<sqlpp::Statement> stmts = std::move(stmts_r).value();
    for (const auto& stmt : stmts) {
      if (stmt.kind == sqlpp::StatementKind::kCreateType) {
        std::vector<adm::FieldSpec> fields;
        for (const auto& f : stmt.create_type.fields) {
          fields.push_back({f.name, *adm::FieldTypeFromName(f.type_name), f.optional});
        }
        (void)catalog.CreateDatatype(adm::Datatype(stmt.create_type.name, fields));
      } else if (stmt.kind == sqlpp::StatementKind::kCreateDataset) {
        (void)catalog.CreateDataset(stmt.create_dataset.name,
                                    stmt.create_dataset.type_name,
                                    stmt.create_dataset.primary_key);
      } else if (stmt.kind == sqlpp::StatementKind::kCreateIndex) {
        auto ds = catalog.FindDataset(stmt.create_index.dataset);
        (void)ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                              stmt.create_index.index_type);
      }
    }
    (void)workload::LoadUseCaseData(&catalog, uc, workload::SimulatorScaleSizes(), 500,
                                    1);
    auto fn_r = sqlpp::ParseStatement(fn_ddl.empty() ? uc.function_ddl : fn_ddl);
    sqlpp::Statement fn = std::move(fn_r).value();
    auto d = std::make_shared<sqlpp::SqlppFunctionDef>();
    d->name = fn.create_function.name;
    d->params = fn.create_function.params;
    d->body =
        std::shared_ptr<const sqlpp::SelectStatement>(std::move(fn.create_function.body));
    def = d;
    workload::TweetGenerator gen({.seed = 3, .country_domain = 500});
    for (int i = 0; i < 256; ++i) tweets.push_back(gen.NextValue());
  }
};

void BM_EnrichHashProbe(benchmark::State& state) {
  UseCaseFixture fx(workload::UseCaseId::kSafetyRating);
  auto plan_r = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns);
  auto plan = std::move(plan_r).value();
  (void)plan->Initialize();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->EnrichOne(fx.tweets[i++ % fx.tweets.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnrichHashProbe);

void BM_EnrichRtreeProbe(benchmark::State& state) {
  UseCaseFixture fx(workload::UseCaseId::kNearbyMonuments);
  auto plan_r = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns);
  auto plan = std::move(plan_r).value();
  (void)plan->Initialize();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->EnrichOne(fx.tweets[i++ % fx.tweets.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnrichRtreeProbe);

void BM_EnrichNaiveScan(benchmark::State& state) {
  UseCaseFixture fx(workload::UseCaseId::kNearbyMonuments,
                    workload::NaiveNearbyMonumentsFunctionDdl());
  auto plan_r = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns);
  auto plan = std::move(plan_r).value();
  (void)plan->Initialize();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->EnrichOne(fx.tweets[i++ % fx.tweets.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnrichNaiveScan);

void BM_PlanStateRebuild(benchmark::State& state) {
  // The per-computing-job refresh cost with incremental maintenance disabled
  // (Initialize: snapshot + hash build from scratch every invocation).
  UseCaseFixture fx(workload::UseCaseId::kSafetyRating);
  sqlpp::PlanConfig config;
  config.enable_delta_refresh = false;
  auto plan_r = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns, config);
  auto plan = std::move(plan_r).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->Initialize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanStateRebuild);

void BM_PlanRefreshNoop(benchmark::State& state) {
  // Steady-state Initialize with an unchanged reference dataset: one sequence
  // comparison, no rebuild.
  UseCaseFixture fx(workload::UseCaseId::kSafetyRating);
  auto plan_r = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns);
  auto plan = std::move(plan_r).value();
  (void)plan->Initialize();  // pay the first full build outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->Initialize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanRefreshNoop);

void BM_PlanRefreshDelta(benchmark::State& state) {
  // Initialize after a 1% update batch: O(|delta|) apply into the cached
  // hash build instead of the O(|ref|) rebuild.
  UseCaseFixture fx(workload::UseCaseId::kSafetyRating);
  auto plan_r = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns);
  auto plan = std::move(plan_r).value();
  (void)plan->Initialize();
  auto ds = fx.catalog.FindDataset("SafetyRatings");
  const size_t n_ref = workload::SimulatorScaleSizes().safety_ratings;
  const size_t updates = std::max<size_t>(1, n_ref / 100);
  uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t u = 0; u < updates; ++u) {
      (void)ds->Upsert(workload::GenUpdateFor("SafetyRatings", n_ref, 500, i++));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(plan->Initialize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanRefreshDelta);

void BM_PredeployVsCompile(benchmark::State& state) {
  // Cost the predeployed-jobs optimization avoids per invocation: full plan
  // compilation (parse once outside; Compile per iteration).
  UseCaseFixture fx(workload::UseCaseId::kSafetyRating);
  for (auto _ : state) {
    auto plan = sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredeployVsCompile);

void BM_IntakeHolderPushPull(benchmark::State& state) {
  runtime::IntakePartitionHolder holder({"bench", "intake", 0}, 1u << 20);
  std::string record(450, 'x');
  const size_t batch = 420;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(holder.Push(std::string(record)));
    }
    std::vector<std::string> out;
    benchmark::DoNotOptimize(holder.PullBatch(batch, &out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_IntakeHolderPushPull);

void BM_StorageHolderPushPop(benchmark::State& state) {
  runtime::StoragePartitionHolder holder({"bench", "storage", 0}, 1u << 16);
  workload::TweetGenerator gen({.seed = 9, .country_domain = 50});
  std::vector<adm::Value> records;
  for (int i = 0; i < 64; ++i) records.push_back(gen.NextValue());
  // One frame holding all 64 records.
  runtime::Frame frame = runtime::FrameRecords(records, 1u << 20).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(holder.Push(runtime::Frame(frame)));
    runtime::Frame out;
    benchmark::DoNotOptimize(holder.Pop(&out));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_StorageHolderPushPop);

/// Delta-vs-full-rebuild refresh ablation at a 1% per-batch update rate.
/// Verifies (a) the cached/delta path enriches bit-identically to a rebuilt
/// plan, (b) an unchanged reference dataset makes Initialize() a no-op
/// (checked via the noop_refreshes stat), and (c) the delta refresh is at
/// least `min_speedup`x cheaper than the rebuild. Appends one JSON-lines row
/// to BENCH_fig26.json and BENCH_fig27.json. Returns a process exit code.
int RunDeltaRefreshAblation(bool smoke) {
  UseCaseFixture fx(workload::UseCaseId::kSafetyRating);
  const size_t n_ref = workload::SimulatorScaleSizes().safety_ratings;
  const size_t updates_per_batch = std::max<size_t>(1, n_ref / 100);  // 1% rate
  const int rounds = smoke ? 15 : 40;
  const double min_speedup = 5.0;

  sqlpp::PlanConfig full_cfg;
  full_cfg.enable_delta_refresh = false;
  auto delta_plan =
      std::move(sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(), &fx.fns))
          .value();
  auto full_plan = std::move(sqlpp::EnrichmentPlan::Compile(fx.def, fx.accessor.get(),
                                                            &fx.fns, full_cfg))
                       .value();
  auto ds = fx.catalog.FindDataset("SafetyRatings");
  (void)delta_plan->Initialize();  // first build is a full rebuild for both
  (void)full_plan->Initialize();

  uint64_t upd = 0;
  double delta_us = 0;
  double full_us = 0;
  for (int r = 0; r < rounds; ++r) {
    for (size_t u = 0; u < updates_per_batch; ++u) {
      (void)ds->Upsert(workload::GenUpdateFor("SafetyRatings", n_ref, 500, upd++));
    }
    fx.accessor->BeginEpoch();
    (void)delta_plan->Initialize();
    delta_us += delta_plan->stats().last_init_micros;
    (void)full_plan->Initialize();
    full_us += full_plan->stats().last_init_micros;
  }
  delta_us /= rounds;
  full_us /= rounds;

  // Steady state: nothing changed since the last refresh -> no-op.
  const uint64_t noops_before = delta_plan->stats().noop_refreshes;
  (void)delta_plan->Initialize();
  const double noop_us = delta_plan->stats().last_init_micros;
  const bool noop_ok = delta_plan->stats().noop_refreshes == noops_before + 1;

  bool identical = true;
  for (const auto& tweet : fx.tweets) {
    auto a = delta_plan->EnrichOne(tweet);
    auto b = full_plan->EnrichOne(tweet);
    if (!a.ok() || !b.ok() || !(*a == *b)) {
      identical = false;
      break;
    }
  }

  const double speedup = delta_us > 0 ? full_us / delta_us : 0;
  std::printf("\n=== delta refresh ablation (SafetyRatings, %zu refs, %zu upd/batch) ===\n",
              n_ref, updates_per_batch);
  std::printf("full rebuild   %10.1f us/refresh\n", full_us);
  std::printf("delta refresh  %10.1f us/refresh  (%.1fx faster)\n", delta_us, speedup);
  std::printf("noop refresh   %10.1f us/refresh\n", noop_us);
  std::printf("outputs identical: %s, steady-state noop: %s\n",
              identical ? "yes" : "NO", noop_ok ? "yes" : "NO");

  for (const char* fig : {"fig26", "fig27"}) {
    std::string path = std::string("BENCH_") + fig + ".json";
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) continue;
    std::fprintf(f,
                 "{\"series\":\"micro_delta_refresh\",\"ref_records\":%zu,"
                 "\"update_rate\":0.01,\"updates_per_batch\":%zu,"
                 "\"full_rebuild_us\":%.3f,\"delta_refresh_us\":%.3f,"
                 "\"noop_refresh_us\":%.3f,\"speedup\":%.3f,"
                 "\"outputs_identical\":%s,\"steady_state_noop\":%s}\n",
                 n_ref, updates_per_batch, full_us, delta_us, noop_us, speedup,
                 identical ? "true" : "false", noop_ok ? "true" : "false");
    std::fclose(f);
    std::printf("appended %s row to %s\n", "micro_delta_refresh", path.c_str());
  }

  if (!identical || !noop_ok) {
    std::fprintf(stderr, "FAIL: delta-refresh semantics diverged\n");
    return 1;
  }
  if (smoke && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: delta refresh only %.1fx faster (need >= %.1fx)\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return RunDeltaRefreshAblation(/*smoke=*/true);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return RunDeltaRefreshAblation(/*smoke=*/false);
}
