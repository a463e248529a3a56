#include "storage/component.h"

#include <algorithm>
#include <cassert>

namespace idea::storage {

SortedComponent::SortedComponent(std::vector<Row> rows) : rows_(std::move(rows)) {
  for (size_t i = 0; i + 1 < rows_.size(); ++i) {
    assert(adm::Value::Compare(rows_[i].first, rows_[i + 1].first) < 0 &&
           "component rows must be strictly key-sorted");
  }
}

std::unique_ptr<const SortedComponent> SortedComponent::FromMemTable(MemTable* mem) {
  MemTable::Entries entries = mem->Take();
  std::vector<Row> rows;
  rows.reserve(entries.size());
  while (!entries.empty()) {
    auto node = entries.extract(entries.begin());
    rows.emplace_back(std::move(node.key()), std::move(node.mapped()));
  }
  return std::make_unique<const SortedComponent>(std::move(rows));
}

std::unique_ptr<const SortedComponent> SortedComponent::Merge(
    const std::vector<std::unique_ptr<const SortedComponent>>& oldest_first) {
  RunMerger merger;
  size_t total = 0;
  for (const auto& comp : oldest_first) {
    merger.Add(comp->rows());
    total += comp->size();
  }
  std::vector<Row> rows;
  rows.reserve(total);
  const adm::Value* key;
  const RecordEntry* entry;
  while (merger.Next(&key, &entry)) rows.emplace_back(*key, *entry);
  return std::make_unique<const SortedComponent>(std::move(rows));
}

const RecordEntry* SortedComponent::Get(const adm::Value& key) const {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key, [](const Row& row, const adm::Value& k) {
        return adm::Value::Compare(row.first, k) < 0;
      });
  if (it == rows_.end() || adm::Value::Compare(it->first, key) != 0) return nullptr;
  return &it->second;
}

void RunMerger::Add(const std::vector<SortedComponent::Row>& rows) {
  Cursor c;
  c.row = rows.data();
  c.row_end = rows.data() + rows.size();
  runs_.push_back(c);
}

void RunMerger::Add(const MemTable::Entries& entries) {
  Cursor c;
  c.mem = entries.begin();
  c.mem_end = entries.end();
  c.in_mem = true;
  runs_.push_back(c);
}

bool RunMerger::Next(const adm::Value** key, const RecordEntry** entry) {
  for (;;) {
    if (returned_ < runs_.size()) runs_[returned_].Advance();
    returned_ = static_cast<size_t>(-1);
    // The newest run holding the smallest key wins. Scanning oldest first, a
    // run that ties with the current best holds an older version of the
    // same key, which the newer run shadows: step it past that key.
    Cursor* best = nullptr;
    for (Cursor& c : runs_) {
      if (c.done()) continue;
      if (best != nullptr) {
        const int cmp = adm::Value::Compare(c.key(), best->key());
        if (cmp > 0) continue;
        if (cmp == 0) best->Advance();
      }
      best = &c;
    }
    if (best == nullptr) return false;
    returned_ = static_cast<size_t>(best - runs_.data());
    if (!best->entry().tombstone()) {
      *key = &best->key();
      *entry = &best->entry();
      return true;
    }
  }
}

}  // namespace idea::storage
