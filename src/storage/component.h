// Immutable sorted LSM component ("disk component"): a frozen, key-ordered
// run produced by flushing a memtable or merging older components — plus the
// k-way merge that reads a stack of such runs as one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adm/value.h"
#include "storage/memtable.h"

namespace idea::storage {

class SortedComponent {
 public:
  using Row = std::pair<adm::Value, RecordEntry>;

  /// Builds from rows that must already be sorted by key (asserted in debug).
  explicit SortedComponent(std::vector<Row> rows);

  /// Builds by moving every entry out of `mem`, which is left empty.
  static std::unique_ptr<const SortedComponent> FromMemTable(MemTable* mem);

  /// Full merge of components (index 0 = oldest) into one run: newer entries
  /// win, and tombstones are dropped since no older run is left for them to
  /// mask. Rows share their records with the inputs.
  static std::unique_ptr<const SortedComponent> Merge(
      const std::vector<std::unique_ptr<const SortedComponent>>& oldest_first);

  /// Binary-search point lookup; nullptr when absent.
  const RecordEntry* Get(const adm::Value& key) const;

  size_t size() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// K-way merge over key-ordered runs that yields, in key order, the newest
/// entry of every key whose newest entry is live: tombstones and the older
/// versions they mask are skipped. The runs must outlive the merger and stay
/// unmodified while it is in use. Each step compares the heads of all runs,
/// which suits the handful of runs an LSM dataset keeps.
class RunMerger {
 public:
  /// Adds runs oldest first: on equal keys the run added last wins.
  void Add(const std::vector<SortedComponent::Row>& rows);
  void Add(const MemTable::Entries& entries);

  /// Advances to the next live key; false when the runs are exhausted. The
  /// pointers stay valid until the next call.
  bool Next(const adm::Value** key, const RecordEntry** entry);

 private:
  struct Cursor {
    const SortedComponent::Row* row = nullptr;
    const SortedComponent::Row* row_end = nullptr;
    MemTable::Entries::const_iterator mem, mem_end;
    bool in_mem = false;

    bool done() const { return in_mem ? mem == mem_end : row == row_end; }
    const adm::Value& key() const { return in_mem ? mem->first : row->first; }
    const RecordEntry& entry() const { return in_mem ? mem->second : row->second; }
    void Advance() {
      if (in_mem) {
        ++mem;
      } else {
        ++row;
      }
    }
  };

  std::vector<Cursor> runs_;  // oldest first
  // Index of the run holding the entry Next() last returned, or npos.
  size_t returned_ = static_cast<size_t>(-1);
};

}  // namespace idea::storage
