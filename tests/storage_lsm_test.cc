#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <thread>

#include "adm/json.h"
#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/component.h"
#include "storage/lsm_dataset.h"

namespace idea::storage {
namespace {

using adm::Value;

adm::Datatype SimpleType() {
  return adm::Datatype("T", {{"id", adm::FieldType::kInt64, false}});
}

Value Rec(int64_t id, const std::string& payload = "p") {
  return Value::MakeObject({{"id", Value::MakeInt(id)},
                            {"payload", Value::MakeString(payload)}});
}

TEST(LsmDatasetTest, InsertGetScan) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(2)).ok());
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  auto got = ds.Get(Value::MakeInt(1));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetField("payload")->AsString(), "p");
  auto snap = ds.Scan();
  ASSERT_EQ(snap->size(), 2u);
  // Scan is key-ordered.
  EXPECT_EQ((*snap)[0].GetField("id")->AsInt(), 1);
}

TEST(LsmDatasetTest, DuplicateInsertFails) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  EXPECT_EQ(ds.Insert(Rec(1)).code(), StatusCode::kAlreadyExists);
}

TEST(LsmDatasetTest, UpsertReplaces) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Upsert(Rec(1, "old")).ok());
  ASSERT_TRUE(ds.Upsert(Rec(1, "new")).ok());
  EXPECT_EQ(ds.Get(Value::MakeInt(1))->GetField("payload")->AsString(), "new");
  EXPECT_EQ(ds.LiveRecordCount(), 1u);
}

TEST(LsmDatasetTest, DeleteMasksRecord) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  ASSERT_TRUE(ds.Delete(Value::MakeInt(1)).ok());
  EXPECT_TRUE(ds.Get(Value::MakeInt(1)).status().IsNotFound());
  EXPECT_EQ(ds.LiveRecordCount(), 0u);
  EXPECT_TRUE(ds.Delete(Value::MakeInt(1)).IsNotFound());
  // Re-insert after delete works.
  EXPECT_TRUE(ds.Insert(Rec(1)).ok());
}

TEST(LsmDatasetTest, MissingPrimaryKeyRejected) {
  LsmDataset ds("d", SimpleType(), "id");
  Value bad = Value::MakeObject({{"payload", Value::MakeString("x")}});
  EXPECT_FALSE(ds.Upsert(bad).ok());
}

TEST(LsmDatasetTest, DatatypeValidationApplies) {
  LsmDataset ds("d",
                adm::Datatype("T", {{"id", adm::FieldType::kInt64, false},
                                    {"when", adm::FieldType::kDateTime, false}}),
                "id");
  Value rec = Value::MakeObject({{"id", Value::MakeInt(1)},
                                 {"when", Value::MakeString("2019-01-01T00:00:00Z")}});
  ASSERT_TRUE(ds.Insert(rec).ok());
  EXPECT_TRUE(ds.Get(Value::MakeInt(1))->GetField("when")->IsDateTime());
  Value bad = Value::MakeObject({{"id", Value::MakeInt(2)},
                                 {"when", Value::MakeString("garbage")}});
  EXPECT_TRUE(ds.Insert(bad).IsTypeMismatch());
}

TEST(LsmDatasetTest, FlushAndCompaction) {
  DatasetOptions opts;
  opts.memtable_bytes = 2048;  // tiny: force flushes
  opts.compaction_threshold = 3;
  LsmDataset ds("d", SimpleType(), "id", opts);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(ds.Upsert(Rec(i, std::string(32, 'x'))).ok());
  }
  DatasetStats stats = ds.stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_LE(ds.ComponentCount(), opts.compaction_threshold + 1);
  // All records remain visible through the merged read path.
  EXPECT_EQ(ds.LiveRecordCount(), 500u);
  for (int64_t i = 0; i < 500; i += 97) {
    EXPECT_TRUE(ds.Get(Value::MakeInt(i)).ok()) << i;
  }
}

TEST(LsmDatasetTest, NewestVersionWinsAcrossComponents) {
  DatasetOptions opts;
  opts.memtable_bytes = 1024;
  LsmDataset ds("d", SimpleType(), "id", opts);
  for (int round = 0; round < 5; ++round) {
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(ds.Upsert(Rec(i, "v" + std::to_string(round))).ok());
    }
  }
  EXPECT_EQ(ds.LiveRecordCount(), 50u);
  EXPECT_EQ(ds.Get(Value::MakeInt(7))->GetField("payload")->AsString(), "v4");
}

TEST(LsmDatasetTest, WalRecordsAndFlushes) {
  LsmDataset ds("d", SimpleType(), "id");
  ASSERT_TRUE(ds.Insert(Rec(1)).ok());
  ASSERT_TRUE(ds.Upsert(Rec(1, "u")).ok());
  ASSERT_TRUE(ds.Delete(Value::MakeInt(1)).ok());
  WalStats before = ds.wal_stats();
  EXPECT_EQ(before.appends, 3u);
  EXPECT_GT(before.unflushed_bytes, 0u);
  ASSERT_TRUE(ds.FlushWal().ok());
  WalStats after = ds.wal_stats();
  EXPECT_EQ(after.flushes, 1u);
  EXPECT_EQ(after.unflushed_bytes, 0u);
}

TEST(WalTest, ReadAllRoundTrips) {
  Wal wal;
  WalRecord r1{WalRecordType::kInsert, 1, Value::MakeInt(5), Rec(5)};
  WalRecord r2{WalRecordType::kDelete, 2, Value::MakeInt(5), Value()};
  ASSERT_TRUE(wal.Append(r1).ok());
  ASSERT_TRUE(wal.Append(r2).ok());
  ASSERT_TRUE(wal.Flush().ok());
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kInsert);
  EXPECT_EQ((*records)[0].record, r1.record);
  EXPECT_EQ((*records)[1].type, WalRecordType::kDelete);
  EXPECT_EQ((*records)[1].key.AsInt(), 5);
}

TEST(WalTest, FileBackedLog) {
  std::string path = ::testing::TempDir() + "/idea_wal_test.log";
  auto wal = Wal::OpenFile(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append({WalRecordType::kUpsert, 1, Value::MakeInt(1), Rec(1)}).ok());
  ASSERT_TRUE((*wal)->Flush().ok());
  EXPECT_EQ((*wal)->stats().flushes, 1u);
}

TEST(LsmDatasetTest, ConcurrentReadersAndWriter) {
  LsmDataset ds("d", SimpleType(), "id");
  for (int64_t i = 0; i < 100; ++i) ASSERT_TRUE(ds.Upsert(Rec(i)).ok());
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    for (int64_t i = 0; i < 1000; ++i) {
      (void)ds.Upsert(Rec(i % 100, "w" + std::to_string(i)));
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        auto snap = ds.Scan();
        EXPECT_EQ(snap->size(), 100u);
        reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
}

// Model check: a seeded random mix of inserts, upserts, deletes and forced
// flushes against a std::map, with a memtable and compaction threshold tiny
// enough that keys and tombstones spread over several sorted runs and
// full-merge compactions keep folding them together. Every read path is
// compared with the model after every step, and snapshots kept from earlier
// steps must still hold their step's contents at the end.
void RunModelCheck(uint64_t seed, bool with_index) {
  SCOPED_TRACE("seed " + std::to_string(seed) + (with_index ? " indexed" : ""));
  constexpr int64_t kKeys = 48;
  constexpr int64_t kGroups = 5;
  constexpr int kSteps = 1500;
  DatasetOptions opts;
  opts.memtable_bytes = 1024;
  opts.compaction_threshold = 3;
  LsmDataset ds("d", SimpleType(), "id", opts);
  if (with_index) {
    ASSERT_TRUE(ds.CreateIndex("byG", "g", "btree").ok());
  }
  std::map<int64_t, Value> model;
  std::vector<std::pair<std::shared_ptr<const adm::RecordSet>, std::map<int64_t, Value>>> kept;
  uint64_t seq = 0;
  size_t max_runs = 0;
  Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    const int64_t id = static_cast<int64_t>(rng.NextBelow(kKeys));
    Value rec = Value::MakeObject(
        {{"id", Value::MakeInt(id)},
         {"g", Value::MakeInt(static_cast<int64_t>(rng.NextBelow(kGroups)))},
         {"payload", Value::MakeString(rng.NextAlpha(rng.NextBelow(40)))}});
    const uint64_t op = rng.NextBelow(10);
    const uint64_t prev_seq = seq;
    bool wrote = false;
    if (op < 3) {
      Status st = ds.Insert(rec);
      if (model.count(id) > 0) {
        ASSERT_EQ(st.code(), StatusCode::kAlreadyExists) << step;
      } else {
        ASSERT_TRUE(st.ok()) << step << ": " << st.ToString();
        model[id] = rec;
        wrote = true;
      }
    } else if (op < 6) {
      ASSERT_TRUE(ds.Upsert(rec).ok()) << step;
      model[id] = rec;
      wrote = true;
    } else if (op < 9) {
      Status st = ds.Delete(Value::MakeInt(id));
      if (model.erase(id) > 0) {
        ASSERT_TRUE(st.ok()) << step << ": " << st.ToString();
        wrote = true;
      } else {
        ASSERT_TRUE(st.IsNotFound()) << step;
      }
    } else {
      ASSERT_TRUE(ds.FlushMemTable().ok()) << step;
    }
    if (wrote) ++seq;
    max_runs = std::max(max_runs, ds.ComponentCount());

    // Scan: key order, exact contents, and the sequence it is current through.
    uint64_t scan_seq = 0;
    auto snap = ds.Scan(&scan_seq);
    ASSERT_EQ(scan_seq, seq) << step;
    ASSERT_EQ(snap->size(), model.size()) << step;
    size_t i = 0;
    for (const auto& [k, v] : model) ASSERT_EQ((*snap)[i++], v) << step << " key " << k;
    // Snapshots share the stored records: with no write in between, a second
    // scan hands out the very same records.
    auto again = ds.Scan();
    ASSERT_EQ(again->size(), snap->size()) << step;
    for (i = 0; i < snap->size(); ++i) ASSERT_EQ(&(*again)[i], &(*snap)[i]) << step;
    if (step % 100 == 0) kept.emplace_back(snap, model);
    ASSERT_EQ(ds.LiveRecordCount(), model.size()) << step;
    for (int64_t k = 0; k < kKeys; ++k) {
      auto got = ds.Get(Value::MakeInt(k));
      auto it = model.find(k);
      if (it == model.end()) {
        ASSERT_TRUE(got.status().IsNotFound()) << step << " key " << k;
      } else {
        ASSERT_TRUE(got.ok()) << step << " key " << k;
        ASSERT_EQ(*got, it->second) << step << " key " << k;
      }
    }
    if (with_index) {
      for (int64_t g = 0; g < kGroups; ++g) {
        std::vector<Value> hits;
        ASSERT_TRUE(ds.ProbeIndexEquals("g", Value::MakeInt(g), &hits).ok());
        std::map<int64_t, Value> expect, got;
        for (const auto& [k, v] : model) {
          if (v.GetField("g")->AsInt() == g) expect.emplace(k, v);
        }
        for (Value& v : hits) got.emplace(v.GetField("id")->AsInt(), std::move(v));
        ASSERT_EQ(got.size(), hits.size()) << step << " duplicate index hit";
        ASSERT_EQ(got, expect) << step << " group " << g;
      }
    }

    // Versioning: each write advances the sequence by one, and the delta
    // over this step replays exactly that write.
    ASSERT_EQ(ds.CurrentSeq(), seq) << step;
    std::vector<DatasetChange> delta;
    ASSERT_TRUE(ds.ScanDelta(prev_seq, seq, &delta).ok()) << step;
    ASSERT_EQ(delta.size(), seq - prev_seq) << step;
    if (wrote) {
      EXPECT_EQ(delta[0].seqno, seq);
      EXPECT_EQ(delta[0].key.AsInt(), id);
      auto it = model.find(id);
      EXPECT_EQ(delta[0].tombstone, it == model.end());
      if (it != model.end()) {
        ASSERT_NE(delta[0].record, nullptr);
        EXPECT_EQ(*delta[0].record, it->second);
      }
    }
  }
  // Later upserts, deletes, flushes and compactions left every kept
  // snapshot as it was when taken.
  for (size_t j = 0; j < kept.size(); ++j) {
    const auto& [old_snap, old_model] = kept[j];
    ASSERT_EQ(old_snap->size(), old_model.size()) << "snapshot of step " << j * 100;
    size_t i = 0;
    for (const auto& [k, v] : old_model) {
      ASSERT_EQ((*old_snap)[i++], v) << "snapshot of step " << j * 100 << " key " << k;
    }
  }
  DatasetStats stats = ds.stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GE(max_runs, 3u);
}

TEST(LsmDatasetTest, ModelCheckUnindexed) {
  for (uint64_t seed : {1, 2, 3}) RunModelCheck(seed, /*with_index=*/false);
}

TEST(LsmDatasetTest, ModelCheckWithBTreeIndex) {
  for (uint64_t seed : {4, 5, 6}) RunModelCheck(seed, /*with_index=*/true);
}

RecordEntry Live(uint64_t seqno, const Value& record) {
  RecordEntry e;
  e.seqno = seqno;
  e.record = std::make_shared<const Value>(record);
  return e;
}

RecordEntry Tombstone(uint64_t seqno) {
  RecordEntry e;
  e.seqno = seqno;
  return e;
}

TEST(SortedComponentTest, MergeKeepsNewestAndDropsTombstones) {
  std::vector<std::unique_ptr<const SortedComponent>> runs;
  std::vector<SortedComponent::Row> oldest;
  oldest.emplace_back(Value::MakeInt(1), Live(1, Rec(1, "a")));
  oldest.emplace_back(Value::MakeInt(2), Live(2, Rec(2, "a")));
  oldest.emplace_back(Value::MakeInt(3), Live(3, Rec(3, "a")));
  runs.push_back(std::make_unique<const SortedComponent>(std::move(oldest)));
  std::vector<SortedComponent::Row> newer;
  newer.emplace_back(Value::MakeInt(1), Tombstone(4));
  newer.emplace_back(Value::MakeInt(3), Live(5, Rec(3, "b")));
  newer.emplace_back(Value::MakeInt(4), Tombstone(6));  // masks nothing
  runs.push_back(std::make_unique<const SortedComponent>(std::move(newer)));
  std::vector<SortedComponent::Row> newest;
  newest.emplace_back(Value::MakeInt(2), Tombstone(7));
  newest.emplace_back(Value::MakeInt(5), Live(8, Rec(5, "c")));
  runs.push_back(std::make_unique<const SortedComponent>(std::move(newest)));

  auto merged = SortedComponent::Merge(runs);
  ASSERT_EQ(merged->size(), 2u);
  EXPECT_EQ(merged->rows()[0].first.AsInt(), 3);
  EXPECT_EQ(merged->rows()[0].second.seqno, 5u);
  EXPECT_EQ(*merged->rows()[0].second.record, Rec(3, "b"));
  EXPECT_EQ(merged->rows()[1].first.AsInt(), 5);
  // The merged run shares records with its inputs instead of copying them.
  EXPECT_EQ(merged->rows()[0].second.record.get(),
            runs[1]->rows()[1].second.record.get());
  EXPECT_EQ(merged->Get(Value::MakeInt(1)), nullptr);
}

TEST(SortedComponentTest, FlushMovesMemTableEntries) {
  MemTable mem;
  mem.Put(Value::MakeInt(2), Live(1, Rec(2)));
  mem.Put(Value::MakeInt(1), Live(2, Rec(1)));
  mem.Put(Value::MakeInt(3), Tombstone(3));
  const Value* shared = mem.Get(Value::MakeInt(1))->record.get();
  auto comp = SortedComponent::FromMemTable(&mem);
  EXPECT_TRUE(mem.empty());
  EXPECT_EQ(mem.ApproximateBytes(), 0u);
  ASSERT_EQ(comp->size(), 3u);
  EXPECT_EQ(comp->rows()[0].first.AsInt(), 1);
  EXPECT_EQ(comp->rows()[0].second.record.get(), shared);
  EXPECT_TRUE(comp->rows()[2].second.tombstone());
}

// CurrentSeq() takes no lock: a reader polling it while a writer flushes and
// compacts must always be able to ScanDelta up to what it read, and every
// published sequence must appear in exactly one delta. Runs under TSan via
// tests/run_tsan.sh.
TEST(LsmDatasetTest, CurrentSeqPublishesCommittedWrites) {
  DatasetOptions opts;
  opts.memtable_bytes = 4096;
  opts.compaction_threshold = 3;
  opts.changelog_capacity = 1 << 16;  // the reader may lag; never wrap
  LsmDataset ds("d", SimpleType(), "id", opts);
  constexpr int64_t kUpserts = 3000;
  constexpr uint64_t kWrites = kUpserts + kUpserts / 10;
  std::thread writer([&] {
    for (int64_t i = 0; i < kUpserts; ++i) {
      ASSERT_TRUE(ds.Upsert(Rec(i % 257, "w" + std::to_string(i))).ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(ds.Delete(Value::MakeInt(i % 257)).ok());
      }
    }
  });
  uint64_t prev = 0;
  std::vector<DatasetChange> delta;
  while (prev < kWrites) {
    const uint64_t cur = ds.CurrentSeq();
    ASSERT_GE(cur, prev);
    if (cur == prev) {
      std::this_thread::yield();
      continue;
    }
    delta.clear();
    Status st = ds.ScanDelta(prev, cur, &delta);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(delta.size(), cur - prev);
    for (size_t j = 0; j < delta.size(); ++j) {
      ASSERT_EQ(delta[j].seqno, prev + 1 + j);
    }
    prev = cur;
  }
  writer.join();
  EXPECT_EQ(ds.CurrentSeq(), kWrites);
  EXPECT_GT(ds.stats().compactions, 0u);
}

// A scanner holding a few snapshots drops them while the writer upserts,
// deletes, flushes and compacts: each snapshot stays key-ordered and
// unchanged until it is dropped, though the runs that produced its records
// are merged away underneath it. Runs under TSan via tests/run_tsan.sh.
TEST(LsmDatasetTest, SnapshotsOutliveFlushAndCompaction) {
  DatasetOptions opts;
  opts.memtable_bytes = 2048;
  opts.compaction_threshold = 3;
  LsmDataset ds("d", SimpleType(), "id", opts);
  constexpr int64_t kKeys = 97;
  constexpr int64_t kWrites = 4000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(ds.Upsert(Rec(i % kKeys, "w" + std::to_string(i))).ok());
      if (i % 7 == 6) {
        Status st = ds.Delete(Value::MakeInt((i * 3) % kKeys));
        ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      }
      if (i % 50 == 49) {
        ASSERT_TRUE(ds.FlushMemTable().ok());
      }
    }
    done.store(true);
  });
  struct Held {
    std::shared_ptr<const adm::RecordSet> snap;
    std::vector<std::string> text;  // the records as first read
  };
  auto unchanged = [](const Held& h) {
    ASSERT_EQ(h.snap->size(), h.text.size());
    for (size_t i = 0; i < h.text.size(); ++i) ASSERT_EQ((*h.snap)[i].ToString(), h.text[i]);
  };
  std::deque<Held> held;
  size_t scans = 0;
  do {
    Held h{ds.Scan(), {}};
    int64_t prev = -1;
    for (const Value& rec : *h.snap) {
      const int64_t id = rec.GetField("id")->AsInt();
      ASSERT_GT(id, prev);
      prev = id;
      h.text.push_back(rec.ToString());
    }
    held.push_back(std::move(h));
    if (held.size() > 4) {
      unchanged(held.front());
      held.pop_front();
    }
    ++scans;
  } while (!done.load());
  writer.join();
  for (const Held& h : held) unchanged(h);
  EXPECT_GT(scans, 1u);
  EXPECT_GT(ds.stats().compactions, 0u);
}

TEST(CatalogTest, LifecycleAndLookup) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatatype(SimpleType()).ok());
  EXPECT_TRUE(catalog.CreateDatatype(SimpleType()).code() == StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.CreateDataset("D1", "T", "id").ok());
  EXPECT_TRUE(catalog.CreateDataset("D1", "T", "id").code() ==
              StatusCode::kAlreadyExists);
  EXPECT_FALSE(catalog.CreateDataset("D2", "NoType", "id").ok());
  EXPECT_TRUE(catalog.HasDataset("D1"));
  EXPECT_NE(catalog.FindDataset("D1"), nullptr);
  EXPECT_EQ(catalog.DatasetNames().size(), 1u);
  ASSERT_TRUE(catalog.DropDataset("D1").ok());
  EXPECT_FALSE(catalog.HasDataset("D1"));
  EXPECT_TRUE(catalog.DropDataset("D1").IsNotFound());
}

TEST(CatalogAccessorTest, EpochCaching) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatatype(SimpleType()).ok());
  ASSERT_TRUE(catalog.CreateDataset("D", "T", "id").ok());
  auto ds = catalog.FindDataset("D");
  ASSERT_TRUE(ds->Upsert(Rec(1)).ok());

  CatalogAccessor cached(&catalog, /*cache=*/true);
  auto snap1 = cached.GetSnapshot("D");
  ASSERT_TRUE(snap1.ok());
  EXPECT_EQ((*snap1)->size(), 1u);
  ASSERT_TRUE(ds->Upsert(Rec(2)).ok());
  // Same epoch: cached snapshot, update invisible.
  EXPECT_EQ((*cached.GetSnapshot("D"))->size(), 1u);
  cached.BeginEpoch();
  EXPECT_EQ((*cached.GetSnapshot("D"))->size(), 2u);

  CatalogAccessor uncached(&catalog, /*cache=*/false);
  EXPECT_EQ((*uncached.GetSnapshot("D"))->size(), 2u);
  ASSERT_TRUE(ds->Upsert(Rec(3)).ok());
  EXPECT_EQ((*uncached.GetSnapshot("D"))->size(), 3u);
}

TEST(CatalogAccessorTest, IndexProbeKinds) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDatatype(SimpleType()).ok());
  ASSERT_TRUE(catalog.CreateDataset("D", "T", "id").ok());
  auto ds = catalog.FindDataset("D");
  ASSERT_TRUE(ds->CreateIndex("i1", "payload", "btree").ok());
  CatalogAccessor accessor(&catalog, false);
  auto probe = accessor.GetIndexProbe("D", "payload");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->kind(), sqlpp::IndexProbe::Kind::kEquality);
  EXPECT_EQ(accessor.GetIndexProbe("D", "nope"), nullptr);
  EXPECT_EQ(accessor.GetIndexProbe("NoDs", "payload"), nullptr);
}

}  // namespace
}  // namespace idea::storage
