#include "storage/memtable.h"

#include <utility>

namespace idea::storage {

void MemTable::Put(adm::Value key, RecordEntry entry) {
  // A tombstone is costed as a MISSING record (8 bytes).
  entry.bytes =
      key.EstimateSize() + (entry.record ? entry.record->EstimateSize() : 8) + 48;
  bytes_ += entry.bytes;
  auto it = entries_.lower_bound(key);
  if (it != entries_.end() && adm::Value::Compare(it->first, key) == 0) {
    bytes_ -= it->second.bytes;
    it->second = std::move(entry);
  } else {
    entries_.emplace_hint(it, std::move(key), std::move(entry));
  }
}

const RecordEntry* MemTable::Get(const adm::Value& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

MemTable::Entries MemTable::Take() {
  bytes_ = 0;
  return std::exchange(entries_, {});
}

}  // namespace idea::storage
