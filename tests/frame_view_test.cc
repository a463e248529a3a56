// Frame views over FrameRecords output: each record's raw bytes must be its
// canonical serialization, and decoding a record view must reproduce the
// input record byte for byte, in input order across frame boundaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adm/serde.h"
#include "adm/value.h"
#include "common/rng.h"
#include "runtime/frame.h"

namespace idea::runtime {
namespace {

using adm::Value;

/// Random ADM value tree; `depth` bounds nesting.
Value RandomValue(Rng* rng, int depth) {
  // Nested collections get rarer as depth grows.
  uint64_t pick = rng->NextBelow(depth > 0 ? 12 : 10);
  switch (pick) {
    case 0:
      return Value::MakeNull();
    case 1:
      return Value::MakeMissing();
    case 2:
      return Value::MakeBool(rng->NextBool(0.5));
    case 3:
      return Value::MakeInt(rng->NextInRange(-1'000'000'000, 1'000'000'000));
    case 4:
      return Value::MakeDouble(rng->NextDouble() * 2e6 - 1e6);
    case 5:
      return Value::MakeString(rng->NextAlpha(rng->NextBelow(24)));
    case 6:
      return Value::MakeDateTime({rng->NextInRange(0, 4'000'000'000'000)});
    case 7:
      return Value::MakeDuration({static_cast<int32_t>(rng->NextInRange(-24, 24)),
                                  rng->NextInRange(-100'000, 100'000)});
    case 8:
      return Value::MakePoint({rng->NextDouble() * 360 - 180, rng->NextDouble() * 180 - 90});
    case 9: {
      adm::Point lo{rng->NextDouble() * 100, rng->NextDouble() * 100};
      return Value::MakeRectangle({lo, {lo.x + rng->NextDouble(), lo.y + rng->NextDouble()}});
    }
    case 10: {
      adm::Array a;
      size_t n = rng->NextBelow(4);
      for (size_t i = 0; i < n; ++i) a.push_back(RandomValue(rng, depth - 1));
      return Value::MakeArray(std::move(a));
    }
    default: {
      adm::Fields f;
      size_t n = rng->NextBelow(4);
      for (size_t i = 0; i < n; ++i) {
        f.emplace_back(rng->NextAlpha(1 + rng->NextBelow(8)), RandomValue(rng, depth - 1));
      }
      return Value::MakeObject(std::move(f));
    }
  }
}

/// Random top-level record: mostly objects (the feed shape), with the
/// occasional bare scalar/array.
Value RandomRecord(Rng* rng) {
  if (rng->NextBool(0.85)) {
    adm::Fields f;
    size_t n = rng->NextBelow(8);
    for (size_t i = 0; i < n; ++i) {
      // Duplicate names are legal ADM; GetField takes the first match.
      std::string name = rng->NextBool(0.1) ? "dup" : rng->NextAlpha(1 + rng->NextBelow(10));
      f.emplace_back(std::move(name), RandomValue(rng, 2));
    }
    return Value::MakeObject(std::move(f));
  }
  return RandomValue(rng, 2);
}

TEST(FrameViewTest, FuzzRoundTripMatchesFullDecode) {
  Rng rng(0x1DEA5EEDull);
  for (int round = 0; round < 50; ++round) {
    std::vector<Value> records;
    size_t n = 1 + rng.NextBelow(40);
    for (size_t i = 0; i < n; ++i) records.push_back(RandomRecord(&rng));

    // Small, varying frame targets split most batches across several frames.
    std::vector<Frame> frames = FrameRecords(records, 64 + rng.NextBelow(512));
    size_t k = 0;
    for (const Frame& frame : frames) {
      FrameView view(frame);
      for (size_t i = 0; i < view.size(); ++i, ++k) {
        ASSERT_LT(k, n);
        RecordView rv = view[i];
        // Raw bytes are exactly the canonical serialization.
        std::vector<uint8_t> expect = adm::SerializeToBytes(records[k]);
        std::span<const uint8_t> raw = rv.raw();
        ASSERT_EQ(std::vector<uint8_t>(raw.begin(), raw.end()), expect);

        // Per-record decode reproduces the input record. Byte equality of the
        // canonical serialization is the strictest equivalence the engine has
        // (field order, type tags, and payloads all included).
        auto full = rv.Decode();
        ASSERT_TRUE(full.ok());
        EXPECT_EQ(adm::SerializeToBytes(*full), expect);
      }
    }
    EXPECT_EQ(k, n);
  }
}

TEST(FrameViewTest, EmptyAndScalarFrames) {
  Frame f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(FrameView(f).size(), 0u);
  f.Append(Value::MakeInt(7));
  EXPECT_EQ(f.record_count(), 1u);
  auto rec = FrameView(f)[0].Decode();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->AsInt(), 7);
}

}  // namespace
}  // namespace idea::runtime
