#include "storage/lsm_dataset.h"

#include "common/fault_injection.h"
#include "obs/flight_recorder.h"

namespace idea::storage {

using adm::Value;

LsmDataset::LsmDataset(std::string name, adm::Datatype datatype, std::string primary_key,
                       DatasetOptions options)
    : name_(std::move(name)),
      datatype_(std::move(datatype)),
      primary_key_(std::move(primary_key)),
      options_(options) {
  if (options_.enable_wal) wal_ = std::make_unique<Wal>();
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.lsm." + name_);
  metrics_.writes = scope.Counter("writes");
  metrics_.flushes = scope.Counter("flushes");
  metrics_.compactions = scope.Counter("compactions");
  metrics_.changelog_evictions = scope.Counter("changelog_evictions");
  metrics_.flush_us = scope.Histogram("flush_us");
  metrics_.compact_us = scope.Histogram("compact_us");
}

Result<Value> LsmDataset::ExtractKey(const Value& record) const {
  const Value* key = record.GetField(primary_key_);
  if (key == nullptr || key->IsUnknown()) {
    return Status::InvalidArgument("record for dataset '" + name_ +
                                   "' lacks primary key field '" + primary_key_ + "'");
  }
  return *key;
}

const RecordEntry* LsmDataset::FindEntryLocked(const Value& key) const {
  if (const RecordEntry* e = memtable_.Get(key)) return e;
  for (auto it = components_.rbegin(); it != components_.rend(); ++it) {
    if (const RecordEntry* e = (*it)->Get(key)) return e;
  }
  return nullptr;
}

RunMerger LsmDataset::MergeLocked() const {
  RunMerger merger;
  for (const auto& comp : components_) merger.Add(comp->rows());
  merger.Add(memtable_.entries());
  return merger;
}

void LsmDataset::PublishSeqLocked() {
  published_seq_.store(next_seqno_ - 1, std::memory_order_release);
}

void LsmDataset::IndexInsertLocked(const Value& record) {
  const Value* pk = record.GetField(primary_key_);
  for (auto& [field, slot] : indexes_) {
    const Value* v = record.GetField(field);
    if (v == nullptr || v->IsUnknown()) continue;
    if (slot.btree != nullptr) slot.btree->Insert(*v, *pk);
    if (slot.rtree != nullptr) slot.rtree->Insert(*v, *pk);
  }
}

void LsmDataset::IndexRemoveLocked(const Value& record) {
  const Value* pk = record.GetField(primary_key_);
  for (auto& [field, slot] : indexes_) {
    const Value* v = record.GetField(field);
    if (v == nullptr || v->IsUnknown()) continue;
    if (slot.btree != nullptr) slot.btree->Remove(*v, *pk);
    if (slot.rtree != nullptr) slot.rtree->Remove(*v, *pk);
  }
}

Status LsmDataset::WriteLocked(WalRecordType type, Value record) {
  IDEA_ASSIGN_OR_RETURN(Value key, ExtractKey(record));
  // The previous version only feeds index maintenance and the insert/delete
  // liveness checks, so an upsert into an unindexed dataset skips the probe
  // through the memtable and every component.
  const RecordEntry* existing = nullptr;
  if (type != WalRecordType::kUpsert || !indexes_.empty()) existing = FindEntryLocked(key);
  bool live = existing != nullptr && !existing->tombstone();
  switch (type) {
    case WalRecordType::kInsert:
      if (live) {
        return Status::AlreadyExists("duplicate primary key " + key.ToString() +
                                     " in dataset '" + name_ + "'");
      }
      break;
    case WalRecordType::kUpsert:
      break;
    case WalRecordType::kDelete:
      if (!live) {
        return Status::NotFound("no record with key " + key.ToString() +
                                " in dataset '" + name_ + "'");
      }
      break;
  }
  if (wal_ != nullptr) IDEA_RETURN_NOT_OK(wal_->Append(type, next_seqno_, key, record));
  {
    // Injected crash between the WAL append and the in-memory apply: the
    // mutation is durable in the log but never reaches the memtable, the
    // indexes, or the changelog. The seqno is still consumed — exactly the
    // state WAL replay must repair.
    Status crash = IDEA_FAULT_HIT("lsm.apply");
    if (!crash.ok()) {
      ++next_seqno_;
      PublishSeqLocked();
      return crash;
    }
  }
  if (live) IndexRemoveLocked(*existing->record);
  RecordEntry entry;
  entry.seqno = next_seqno_++;
  if (type != WalRecordType::kDelete) {
    IndexInsertLocked(record);
    entry.record = std::make_shared<const Value>(std::move(record));
  }
  if (options_.changelog_capacity > 0) {
    changelog_.push_back(DatasetChange{entry.seqno, entry.tombstone(), key, entry.record});
    if (changelog_.size() > options_.changelog_capacity) {
      changelog_evicted_through_ = changelog_.front().seqno;
      changelog_.pop_front();
      metrics_.changelog_evictions->Increment();
    }
  }
  memtable_.Put(std::move(key), std::move(entry));
  PublishSeqLocked();
  metrics_.writes->Increment();
  return MaybeFlushLocked();
}

Status LsmDataset::Insert(Value record) {
  IDEA_RETURN_NOT_OK(datatype_.ValidateAndCoerce(&record));
  std::unique_lock lock(mu_);
  ++stats_.inserts;
  return WriteLocked(WalRecordType::kInsert, std::move(record));
}

Status LsmDataset::Upsert(Value record) {
  IDEA_RETURN_NOT_OK(datatype_.ValidateAndCoerce(&record));
  std::unique_lock lock(mu_);
  ++stats_.upserts;
  return WriteLocked(WalRecordType::kUpsert, std::move(record));
}

Status LsmDataset::Delete(const Value& key) {
  std::unique_lock lock(mu_);
  ++stats_.deletes;
  Value stub = Value::MakeObject({{primary_key_, key}});
  return WriteLocked(WalRecordType::kDelete, std::move(stub));
}

Result<Value> LsmDataset::Get(const Value& key) const {
  std::shared_lock lock(mu_);
  ++stats_.point_lookups;
  const RecordEntry* e = FindEntryLocked(key);
  if (e == nullptr || e->tombstone()) {
    return Status::NotFound("no record with key " + key.ToString() + " in dataset '" +
                            name_ + "'");
  }
  return *e->record;
}

std::shared_ptr<const adm::RecordSet> LsmDataset::Scan(uint64_t* seq_out) const {
  std::vector<adm::RecordSet::Record> records;
  {
    std::shared_lock lock(mu_);
    ++stats_.scans;
    if (seq_out != nullptr) *seq_out = next_seqno_ - 1;
    size_t bound = memtable_.entry_count();
    for (const auto& comp : components_) bound += comp->size();
    records.reserve(bound);
    RunMerger merger = MergeLocked();
    const Value* key;
    const RecordEntry* entry;
    while (merger.Next(&key, &entry)) records.push_back(entry->record);
  }
  return std::make_shared<const adm::RecordSet>(std::move(records));
}

size_t LsmDataset::LiveRecordCount() const {
  std::shared_lock lock(mu_);
  RunMerger merger = MergeLocked();
  const Value* key;
  const RecordEntry* entry;
  size_t n = 0;
  while (merger.Next(&key, &entry)) ++n;
  return n;
}

uint64_t LsmDataset::CurrentSeq() const {
  return published_seq_.load(std::memory_order_acquire);
}

Status LsmDataset::ScanDelta(uint64_t from_seq, uint64_t to_seq,
                             std::vector<DatasetChange>* out) const {
  std::shared_lock lock(mu_);
  ++stats_.delta_scans;
  if (from_seq > to_seq || to_seq >= next_seqno_) {
    return Status::InvalidArgument("ScanDelta range (" + std::to_string(from_seq) +
                                   ", " + std::to_string(to_seq) +
                                   "] out of bounds for dataset '" + name_ + "'");
  }
  if (from_seq < changelog_evicted_through_) {
    ++stats_.delta_wraps;
    return Status::ResourceExhausted("changelog of dataset '" + name_ + "' wrapped past seq " +
                              std::to_string(from_seq) + " (retained from " +
                              std::to_string(changelog_evicted_through_ + 1) + ")");
  }
  for (const DatasetChange& c : changelog_) {
    if (c.seqno <= from_seq) continue;
    if (c.seqno > to_seq) break;
    out->push_back(c);
  }
  return Status::OK();
}

Status LsmDataset::CreateIndex(const std::string& index_name, const std::string& field,
                               const std::string& kind) {
  std::unique_lock lock(mu_);
  if (indexes_.count(field) > 0) {
    return Status::AlreadyExists("index already exists on field '" + field +
                                 "' of dataset '" + name_ + "'");
  }
  IndexSlot slot;
  slot.name = index_name;
  if (kind == "btree") {
    slot.btree = std::make_unique<BTreeIndex>(field);
  } else if (kind == "rtree") {
    slot.rtree = std::make_unique<RTreeIndex>(field);
  } else {
    return Status::InvalidArgument("unknown index kind '" + kind + "'");
  }
  // Build from existing live records.
  RunMerger merger = MergeLocked();
  const Value* key;
  const RecordEntry* entry;
  while (merger.Next(&key, &entry)) {
    const Value* v = entry->record->GetField(field);
    if (v == nullptr || v->IsUnknown()) continue;
    if (slot.btree != nullptr) slot.btree->Insert(*v, *key);
    if (slot.rtree != nullptr) slot.rtree->Insert(*v, *key);
  }
  indexes_.emplace(field, std::move(slot));
  return Status::OK();
}

bool LsmDataset::HasIndexOn(const std::string& field, bool spatial) const {
  std::shared_lock lock(mu_);
  auto it = indexes_.find(field);
  if (it == indexes_.end()) return false;
  return spatial ? it->second.rtree != nullptr : it->second.btree != nullptr;
}

std::string LsmDataset::IndexKindOn(const std::string& field) const {
  std::shared_lock lock(mu_);
  auto it = indexes_.find(field);
  if (it == indexes_.end()) return "";
  return it->second.btree != nullptr ? "btree" : "rtree";
}

Status LsmDataset::ProbeIndexEquals(const std::string& field, const Value& key,
                                    std::vector<Value>* out) const {
  std::shared_lock lock(mu_);
  ++stats_.index_probes;
  auto it = indexes_.find(field);
  if (it == indexes_.end() || it->second.btree == nullptr) {
    return Status::NotFound("no btree index on field '" + field + "' of dataset '" +
                            name_ + "'");
  }
  std::vector<Value> pks;
  it->second.btree->SearchEquals(key, &pks);
  for (const Value& pk : pks) {
    const RecordEntry* e = FindEntryLocked(pk);
    if (e != nullptr && !e->tombstone()) out->push_back(*e->record);
  }
  return Status::OK();
}

Status LsmDataset::ProbeIndexMbr(const std::string& field, const adm::Rectangle& query,
                                 std::vector<Value>* out) const {
  std::shared_lock lock(mu_);
  ++stats_.index_probes;
  auto it = indexes_.find(field);
  if (it == indexes_.end() || it->second.rtree == nullptr) {
    return Status::NotFound("no rtree index on field '" + field + "' of dataset '" +
                            name_ + "'");
  }
  std::vector<Value> pks;
  it->second.rtree->Search(query, &pks);
  for (const Value& pk : pks) {
    const RecordEntry* e = FindEntryLocked(pk);
    if (e != nullptr && !e->tombstone()) out->push_back(*e->record);
  }
  return Status::OK();
}

Status LsmDataset::FlushLocked() {
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("lsm.flush"));
  {
    obs::ScopedLatency timer(metrics_.flush_us);
    components_.push_back(SortedComponent::FromMemTable(&memtable_));
  }
  ++stats_.flushes;
  metrics_.flushes->Increment();
  return Status::OK();
}

Status LsmDataset::MaybeFlushLocked() {
  if (memtable_.ApproximateBytes() < options_.memtable_bytes) return Status::OK();
  IDEA_RETURN_NOT_OK(FlushLocked());
  if (components_.size() > options_.compaction_threshold) {
    obs::ScopedLatency timer(metrics_.compact_us);
    auto merged = SortedComponent::Merge(components_);
    components_.clear();
    if (merged->size() > 0) components_.push_back(std::move(merged));
    ++stats_.compactions;
    metrics_.compactions->Increment();
  }
  return Status::OK();
}

Status LsmDataset::FlushMemTable() {
  std::unique_lock lock(mu_);
  if (memtable_.empty()) return Status::OK();
  return FlushLocked();
}

Status LsmDataset::FlushWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Flush();
}

Result<std::vector<WalRecord>> LsmDataset::ReadWal() const {
  std::shared_lock lock(mu_);
  if (wal_ == nullptr) {
    return Status::NotFound("dataset '" + name_ + "' has no WAL attached");
  }
  return wal_->ReadAll();
}

Status LsmDataset::ReplayWalRecords(const std::vector<WalRecord>& records) {
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kInsert:
      case WalRecordType::kUpsert:
        // Replay-as-upsert: an insert already applied before the crash (or
        // already replayed) simply overwrites itself with the same bytes.
        IDEA_RETURN_NOT_OK(Upsert(rec.record));
        break;
      case WalRecordType::kDelete: {
        Status st = Delete(rec.key);
        if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
        break;
      }
    }
  }
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kWalRecovery, name_,
      "replayed " + std::to_string(records.size()) + " wal records",
      /*node=*/-1, records.size());
  return Status::OK();
}

DatasetStats LsmDataset::stats() const {
  DatasetStats out;
  out.inserts = stats_.inserts.load();
  out.upserts = stats_.upserts.load();
  out.deletes = stats_.deletes.load();
  out.point_lookups = stats_.point_lookups.load();
  out.scans = stats_.scans.load();
  out.flushes = stats_.flushes.load();
  out.compactions = stats_.compactions.load();
  out.index_probes = stats_.index_probes.load();
  out.delta_scans = stats_.delta_scans.load();
  out.delta_wraps = stats_.delta_wraps.load();
  return out;
}

WalStats LsmDataset::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : WalStats{};
}

size_t LsmDataset::ComponentCount() const {
  std::shared_lock lock(mu_);
  return components_.size();
}

size_t LsmDataset::MemTableBytes() const {
  std::shared_lock lock(mu_);
  return memtable_.ApproximateBytes();
}

}  // namespace idea::storage
