// In-memory LSM component: the mutable head of a dataset's LSM tree.
// Updates to a dataset "activate the in-memory component of its LSM
// structure" (paper §7.3), adding merge/locking cost to every subsequent
// reader — the effect behind Figure 27's initial throughput drop.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "adm/value.h"
#include "common/status.h"

namespace idea::storage {

/// One versioned record slot (newest version wins; tombstones mask deletes).
/// The record is immutable and shared: the memtable, the sorted components
/// and the changelog ring all point at the one instance built at write time.
struct RecordEntry {
  uint64_t seqno = 0;
  std::shared_ptr<const adm::Value> record;  // null for a tombstone
  size_t bytes = 0;  // size estimate of key + record, set by MemTable::Put

  bool tombstone() const { return record == nullptr; }
};

/// Sorted mutable run. Not internally synchronized: LsmDataset guards it.
class MemTable {
 public:
  using Entries = std::map<adm::Value, RecordEntry>;

  /// Inserts or replaces the entry for `key`.
  void Put(adm::Value key, RecordEntry entry);

  /// nullptr when the key is absent (a tombstone entry is still returned).
  const RecordEntry* Get(const adm::Value& key) const;

  size_t entry_count() const { return entries_.size(); }
  size_t ApproximateBytes() const { return bytes_; }
  bool empty() const { return entries_.empty(); }

  /// Key-ordered iteration.
  const Entries& entries() const { return entries_; }

  /// Moves every entry out (key order) and leaves the memtable empty.
  Entries Take();

 private:
  Entries entries_;
  size_t bytes_ = 0;
};

}  // namespace idea::storage
