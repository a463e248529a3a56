// RecordSet: an immutable, ordered collection of shared immutable records —
// the form in which storage hands a dataset snapshot to readers. Each element
// is the very record the LSM dataset stores (see storage/lsm_dataset.h), so a
// snapshot costs one reference per record, never a deep copy, and a record's
// address is stable for as long as any snapshot holding it lives.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "adm/value.h"

namespace idea::adm {

class RecordSet {
 public:
  using Record = std::shared_ptr<const Value>;

  /// Iterates the records as `const Value&`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = const Value*;
    using reference = const Value&;

    const_iterator() = default;
    explicit const_iterator(std::vector<Record>::const_iterator it) : it_(it) {}
    const Value& operator*() const { return **it_; }
    const Value* operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++it_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }

   private:
    std::vector<Record>::const_iterator it_;
  };

  /// `records` must hold no null pointer.
  explicit RecordSet(std::vector<Record> records) : records_(std::move(records)) {}

  size_t size() const { return records_.size(); }
  const Value& operator[](size_t i) const { return *records_[i]; }
  /// The shared records themselves, for readers that keep some past the set.
  const std::vector<Record>& records() const { return records_; }

  const_iterator begin() const { return const_iterator(records_.begin()); }
  const_iterator end() const { return const_iterator(records_.end()); }

 private:
  std::vector<Record> records_;
};

}  // namespace idea::adm
