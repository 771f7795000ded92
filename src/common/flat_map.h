// Open-addressing hash map from 64-bit keys to small values, built for
// the allocator's flowlet-key hot path: linear probing over one flat
// slot array (power-of-two capacity), backward-shift deletion (no
// tombstones, so probe sequences never degrade under churn), and a
// reserve() that pre-sizes the table -- find/erase never allocate, and
// insert allocates only when the load factor crosses the growth
// threshold, i.e. on a churn spike, never in steady state.
//
// Not a general-purpose container: keys are expected to be well mixed by
// the splitmix64 finalizer (wire-level flow keys are), values are copied
// by value, and for_each visits entries in slot order (set by the hash
// and the insert/erase history, not by insertion order), so keep it off
// any path whose order feeds an output that must replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ft {

template <typename V>
class FlatMap64 {
 public:
  explicit FlatMap64(std::size_t initial_capacity = 64) {
    rehash(ceil_pow2(initial_capacity < 16 ? 16 : initial_capacity));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Pre-sizes so that `n` entries fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t want = ceil_pow2(n + n / 2 + 1);
    if (want > slots_.size()) rehash(want);
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] const V* find(std::uint64_t key) const {
    std::size_t i = index_of(key);
    while (used_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  // Inserts key -> value; returns false (and leaves the map truly
  // unchanged -- no growth, so outstanding find() pointers stay valid)
  // if the key is already present.
  bool emplace(std::uint64_t key, V value) {
    std::size_t i = index_of(key);
    while (used_[i]) {
      if (slots_[i].key == key) return false;
      i = (i + 1) & mask_;
    }
    if (size_ + 1 > max_load()) {
      rehash(slots_.size() * 2);
      i = index_of(key);
      while (used_[i]) i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slots_[i].key = key;
    slots_[i].value = value;
    ++size_;
    return true;
  }

  // Calls f(key, value) once per entry, in slot order. f must not
  // insert or erase.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) f(slots_[i].key, slots_[i].value);
    }
  }

  // Drops every entry but keeps the slot array: a cleared map re-fills
  // to its previous size without touching the heap (batch-coalescing
  // maps are cleared once per flush).
  void clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  // Removes the key; returns false if absent. Backward-shift deletion:
  // entries after the hole whose probe path crosses it are moved back,
  // keeping every remaining probe sequence gap-free.
  bool erase(std::uint64_t key) {
    std::size_t i = index_of(key);
    while (true) {
      if (!used_[i]) return false;
      if (slots_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    std::size_t j = (hole + 1) & mask_;
    while (used_[j]) {
      const std::size_t ideal = index_of(slots_[j].key);
      // Move j back iff its ideal slot is cyclically outside (hole, j].
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    used_[hole] = 0;
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };

  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer.
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  [[nodiscard]] std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }
  [[nodiscard]] std::size_t max_load() const {
    return slots_.size() - slots_.size() / 4;  // 3/4 load factor
  }
  [[nodiscard]] static std::size_t ceil_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  void rehash(std::size_t new_capacity) {
    FT_CHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.assign(new_capacity, Slot{});
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i]) emplace(old_slots[i].key, old_slots[i].value);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ft
