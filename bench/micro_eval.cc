// Record-path micro-benchmark: SQL++ enrichment (EnrichmentPlan::EnrichBatch)
// over the §7.2 use-case suite, timed as best-of-N thread CPU per use case.
//
// Doubles as the `micro_eval_smoke` ctest gate: EnrichBatch on one plan must
// be bit-identical to a per-record EnrichOne loop on a second plan, on every
// use case. Emits one machine-readable timing row per use case to
// BENCH_micro_eval.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adm/json.h"
#include "adm/serde.h"
#include "common/virtual_clock.h"
#include "feed/udf.h"
#include "sqlpp/enrichment_plan.h"
#include "sqlpp/parser.h"
#include "storage/catalog.h"
#include "workload/native_udfs.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/usecases.h"

namespace {

using namespace idea;
using adm::Value;

constexpr size_t kCountryDomain = 500;
constexpr int kTweets = 1024;
constexpr int kReps = 7;

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

struct Fixture {
  storage::Catalog catalog;
  std::unique_ptr<storage::CatalogAccessor> accessor;
  feed::UdfRegistry* udfs;
  std::shared_ptr<const sqlpp::SqlppFunctionDef> def;
  std::vector<Value> tweets;

  Fixture(workload::UseCaseId id, feed::UdfRegistry* registry) : udfs(registry) {
    accessor = std::make_unique<storage::CatalogAccessor>(&catalog, false);
    const auto& uc = workload::GetUseCase(id);
    auto stmts = sqlpp::ParseScript(uc.ddl);
    Check(stmts.status(), "parse ddl");
    for (const auto& stmt : *stmts) {
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
    Check(workload::LoadUseCaseData(&catalog, uc,
                                    workload::SimulatorScaleSizes().Scaled(0.2),
                                    kCountryDomain, 1),
          "load reference data");
    auto fn = sqlpp::ParseStatement(uc.function_ddl);
    Check(fn.status(), "parse function");
    auto d = std::make_shared<sqlpp::SqlppFunctionDef>();
    d->name = fn->create_function.name;
    d->params = fn->create_function.params;
    d->body = std::shared_ptr<const sqlpp::SelectStatement>(
        std::move(fn->create_function.body));
    def = d;
    workload::TweetGenerator gen({.seed = 3, .country_domain = kCountryDomain});
    adm::Datatype tweet_type("T", {{"created_at", adm::FieldType::kDateTime, false}});
    for (int i = 0; i < kTweets; ++i) {
      Value t = gen.NextValue();
      Check(tweet_type.ValidateAndCoerce(&t), "coerce tweet");
      tweets.push_back(std::move(t));
    }
  }

  std::unique_ptr<sqlpp::EnrichmentPlan> MakePlan() {
    auto plan = sqlpp::EnrichmentPlan::Compile(def, accessor.get(), udfs);
    Check(plan.status(), "compile plan");
    Check((*plan)->Initialize(), "initialize plan");
    return std::move(plan).value();
  }
};

}  // namespace

int main() {
  std::string dir = "/tmp/idea_micro_eval_resources";
  (void)::system(("mkdir -p " + dir).c_str());
  feed::UdfRegistry udfs;
  Check(workload::WriteNativeResources(dir, workload::SimulatorScaleSizes().Scaled(0.2),
                                       kCountryDomain, 1),
        "write native resources");
  Check(workload::RegisterNativeUdfs(&udfs, dir), "register native UDFs");

  std::FILE* json = std::fopen("BENCH_micro_eval.json", "w");
  std::printf("%-22s %12s %14s\n", "use case", "enrich us", "records/s");
  int failures = 0;

  for (auto id :
       {workload::UseCaseId::kSafetyRating, workload::UseCaseId::kReligiousPopulation,
        workload::UseCaseId::kLargestReligions, workload::UseCaseId::kFuzzySuspects,
        workload::UseCaseId::kNearbyMonuments}) {
    const auto& uc = workload::GetUseCase(id);
    Fixture fx(id, &udfs);
    auto scalar_plan = fx.MakePlan();
    auto batch_plan = fx.MakePlan();

    // One checked pass: equal outputs, warm pools and caches.
    adm::Array scalar_out, batch_out;
    for (const Value& t : fx.tweets) {
      auto r = scalar_plan->EnrichOne(t);
      Check(r.status(), "scalar enrich");
      scalar_out.push_back(std::move(r).value());
    }
    Check(batch_plan->EnrichBatch(fx.tweets, &batch_out), "batched enrich");
    if (scalar_out.size() != batch_out.size()) {
      std::fprintf(stderr, "FAIL %s: size mismatch\n", uc.name.c_str());
      ++failures;
      continue;
    }
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      if (adm::SerializeToBytes(scalar_out[i]) != adm::SerializeToBytes(batch_out[i])) {
        std::fprintf(stderr, "FAIL %s: record %zu differs between paths\n",
                     uc.name.c_str(), i);
        ++failures;
        break;
      }
    }

    // Best-of-N thread-CPU time (immune to wall-clock noise).
    double best = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      adm::Array out;
      ThreadCpuTimer timer;
      timer.Start();
      Check(batch_plan->EnrichBatch(fx.tweets, &out), "batched enrich");
      best = std::min(best, timer.ElapsedMicros());
    }

    double rps = kTweets * 1e6 / best;
    std::printf("%-22s %12.1f %14.0f\n", uc.name.c_str(), best, rps);
    if (json != nullptr) {
      std::fprintf(json,
                   "{\"series\":%s,\"records\":%d,\"enrich_us\":%.1f,"
                   "\"records_per_s\":%.0f}\n",
                   adm::JsonQuote("micro_eval/" + uc.name).c_str(), kTweets, best, rps);
    }
  }

  if (json != nullptr) {
    std::fclose(json);
    std::printf("\nwrote BENCH_micro_eval.json\n");
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d micro_eval gate failure(s)\n", failures);
    return 1;
  }
  std::printf("micro_eval gate OK: EnrichBatch bit-identical to EnrichOne on every use case\n");
  return 0;
}
