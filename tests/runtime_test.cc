#include <gtest/gtest.h>

#include <thread>

#include "runtime/frame.h"
#include "runtime/partition_holder.h"
#include "runtime/predeployed.h"

namespace idea::runtime {
namespace {

using adm::Value;

Value Rec(int64_t id, const std::string& country) {
  return Value::MakeObject({{"id", Value::MakeInt(id)},
                            {"country", Value::MakeString(country)}});
}

TEST(FrameTest, AppendDecodeRoundTrip) {
  Frame f;
  f.Append(Rec(1, "US"));
  f.Append(Rec(2, "FR"));
  EXPECT_EQ(f.record_count(), 2u);
  FrameView view(f);
  ASSERT_EQ(view.size(), 2u);
  auto second = view[1].Decode();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->GetField("country")->AsString(), "FR");
}

TEST(FrameTest, FrameRecordsSplitsBySize) {
  std::vector<Value> records;
  for (int i = 0; i < 100; ++i) records.push_back(Rec(i, std::string(100, 'x')));
  auto frames = FrameRecords(records, 1024);
  EXPECT_GT(frames.size(), 5u);
  size_t total = 0;
  for (const auto& f : frames) total += f.record_count();
  EXPECT_EQ(total, 100u);
}

TEST(PartitionHolderTest, IntakePullBatchBlocksUntilFull) {
  IntakePartitionHolder holder({"f", "intake", 0});
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(holder.Push("rec" + std::to_string(i)).ok());
  });
  std::vector<std::string> batch;
  EXPECT_TRUE(holder.PullBatch(10, &batch));
  EXPECT_EQ(batch.size(), 10u);
  producer.join();
}

TEST(PartitionHolderTest, EofDeliversPartialBatch) {
  IntakePartitionHolder holder({"f", "intake", 0});
  ASSERT_TRUE(holder.Push("only").ok());
  holder.PushEof();
  std::vector<std::string> batch;
  EXPECT_TRUE(holder.PullBatch(100, &batch));  // partial batch on EOF (§6.1)
  EXPECT_EQ(batch.size(), 1u);
  batch.clear();
  EXPECT_FALSE(holder.PullBatch(100, &batch));  // exhausted
  EXPECT_TRUE(holder.ExhaustedForTest());
  EXPECT_FALSE(holder.Push("late").ok());
}

TEST(PartitionHolderTest, StorageHolderCloseSemantics) {
  StoragePartitionHolder holder({"f", "storage", 1});
  Frame f;
  f.Append(Rec(1, "x"));
  ASSERT_TRUE(holder.Push(std::move(f)).ok());
  holder.Close();
  Frame out;
  EXPECT_TRUE(holder.Pop(&out));
  EXPECT_FALSE(holder.Pop(&out));
  EXPECT_EQ(holder.stats().records_in, 1u);
  EXPECT_EQ(holder.stats().records_out, 1u);
}

TEST(PartitionHolderTest, QueueDepthGaugeIsExactAcrossOverlappingInstances) {
  // Regression: the gauge is maintained with +/- deltas, so two live holder
  // instances sharing a metric name (an abort/drain race, a relocation
  // overlap) report the *sum* of their depths. The old absolute Set() let an
  // aborting instance stomp the survivor's depth to zero — and a drain
  // racing an abort could walk the gauge negative, which the stats view then
  // clamped, silently masking the underflow.
  const PartitionHolderId id{"gauge-regress", "storage", 0};
  obs::Gauge* gauge =
      obs::MetricsRegistry::Default().GetGauge(id.MetricPrefix() + ".queue_depth");
  auto doomed = std::make_shared<StoragePartitionHolder>(id);
  auto survivor = std::make_shared<StoragePartitionHolder>(id);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(doomed->Push(Frame()).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(survivor->Push(Frame()).ok());
  EXPECT_EQ(gauge->value(), 5);

  // The doomed instance aborts: only its own contribution is walked back.
  doomed->Abort(Status::Aborted("node died"));
  EXPECT_EQ(gauge->value(), 2);
  EXPECT_EQ(survivor->stats().queue_depth, 2u);

  // Draining the survivor walks the gauge to exactly zero — not negative.
  survivor->Close();
  Frame f;
  size_t drained = 0;
  while (survivor->Pop(&f)) ++drained;
  EXPECT_EQ(drained, 2u);
  EXPECT_EQ(gauge->value(), 0);
}

TEST(PartitionHolderManagerTest, RegistryLifecycle) {
  PartitionHolderManager mgr;
  auto intake = std::make_shared<IntakePartitionHolder>(
      PartitionHolderId{"feed", "intake", 0});
  ASSERT_TRUE(mgr.RegisterIntake(intake).ok());
  EXPECT_EQ(mgr.RegisterIntake(intake).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(mgr.FindIntake({"feed", "intake", 0}), intake);
  EXPECT_EQ(mgr.FindIntake({"feed", "intake", 1}), nullptr);
  ASSERT_TRUE(mgr.Unregister({"feed", "intake", 0}).ok());
  EXPECT_TRUE(mgr.Unregister({"feed", "intake", 0}).IsNotFound());
}

struct CountingArtifact : JobArtifact {
  int node;
};

TEST(PredeployedJobManagerTest, DeployInvokeUndeploy) {
  PredeployedJobManager mgr;
  int compiles = 0;
  ASSERT_TRUE(mgr.Deploy("job1", 3,
                         [&](size_t node) -> Result<std::unique_ptr<JobArtifact>> {
                           ++compiles;
                           auto a = std::make_unique<CountingArtifact>();
                           a->node = static_cast<int>(node);
                           return std::unique_ptr<JobArtifact>(std::move(a));
                         })
                  .ok());
  EXPECT_EQ(compiles, 3);  // compiled once per node at deploy time
  EXPECT_TRUE(mgr.IsDeployed("job1"));
  for (int i = 0; i < 10; ++i) mgr.RecordInvocation("job1");
  // Invocations do not recompile.
  EXPECT_EQ(compiles, 3);
  EXPECT_EQ(mgr.stats().invocations, 10u);
  auto* artifact = dynamic_cast<CountingArtifact*>(mgr.Get("job1", 2));
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->node, 2);
  EXPECT_EQ(mgr.Get("job1", 9), nullptr);
  ASSERT_TRUE(mgr.Undeploy("job1").ok());
  EXPECT_FALSE(mgr.IsDeployed("job1"));
  EXPECT_EQ(mgr.Get("job1", 0), nullptr);
}

}  // namespace
}  // namespace idea::runtime
