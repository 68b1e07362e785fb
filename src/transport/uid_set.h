// Paged membership bitmap for wire uids.
//
// The delivery boundary inserts one key per accepted packet, so the dedup
// structure is on the per-packet hot path. Wire uids are dense per flow:
// `(flow << 24) + counter` for senders and receivers, RC3's low-priority
// copies at counter offset 0x800000, and the agent's key adds the packet
// type at bit 62. So the set is a bitmap over the key space, cut into
// 512-key pages of 64 bytes found through a small open-addressing
// directory keyed by page number, with the last page touched cached. A
// flow's keys fill its pages bit by bit, which keeps a 50 MB flow's ~70K
// uids in about 9 KB, and consecutive inserts almost always hit the cached
// page. Storage is taken on the first insert, never at construction.
// Determinism: membership answers are exact (key 0 included), and
// iteration order is never observed.
//
// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/annotations.h"

namespace halfback::transport {

/// Insert-only set of 64-bit keys.
class UidSet {
 public:
  UidSet() = default;

  /// Insert `key`; returns true if it was not present before.
  bool insert(std::uint64_t key) HB_EFFECTS(alloc) {
    const std::uint64_t page_no = key >> kPageBits;
    if (cached_index_ == kNoPage || page_no != cached_page_no_) {
      cached_index_ = page_index(page_no);
      cached_page_no_ = page_no;
    }
    std::uint64_t& word =
        pages_[cached_index_].words[(key >> 6) & (kWordsPerPage - 1)];
    const std::uint64_t bit = std::uint64_t{1} << (key & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const HB_EFFECTS() {
    const std::uint32_t index = find(key >> kPageBits);
    if (index == kNoPage) return false;
    const std::uint64_t word = pages_[index].words[(key >> 6) & (kWordsPerPage - 1)];
    return ((word >> (key & 63)) & 1) != 0;
  }

  std::size_t size() const { return size_; }

  /// Heap bytes held by the pages and the directory.
  std::size_t footprint_bytes() const {
    return pages_.capacity() * sizeof(Page) + directory_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr unsigned kPageBits = 9;  ///< 512 keys per page
  static constexpr std::size_t kWordsPerPage = (std::size_t{1} << kPageBits) / 64;
  static constexpr std::uint32_t kNoPage = UINT32_MAX;
  static constexpr std::size_t kInitialSlots = 8;

  struct Page {
    std::uint64_t words[kWordsPerPage] = {};
  };
  /// Directory entry; `index` is kNoPage in an empty slot.
  struct Slot {
    std::uint64_t page_no = 0;
    std::uint32_t index = kNoPage;
  };

  /// Fibonacci hashing: consecutive page numbers spread over the table.
  std::size_t home(std::uint64_t page_no) const {
    return static_cast<std::size_t>((page_no * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::uint32_t find(std::uint64_t page_no) const {
    if (directory_.empty()) return kNoPage;
    const std::size_t mask = directory_.size() - 1;
    for (std::size_t i = home(page_no);; i = (i + 1) & mask) {
      const Slot& slot = directory_[i];
      if (slot.index == kNoPage || slot.page_no == page_no) return slot.index;
    }
  }

  /// Index of the page for `page_no`, created zeroed if absent.
  std::uint32_t page_index(std::uint64_t page_no) {
    const std::uint32_t found = find(page_no);
    if (found != kNoPage) return found;
    // Grow at 50% load: probes stay short even in the worst case.
    if ((pages_.size() + 1) * 2 > directory_.size()) {
      regrow(directory_.empty() ? kInitialSlots : directory_.size() * 2);
    }
    const std::size_t mask = directory_.size() - 1;
    std::size_t i = home(page_no);
    while (directory_[i].index != kNoPage) i = (i + 1) & mask;
    const auto index = static_cast<std::uint32_t>(pages_.size());
    directory_[i] = Slot{page_no, index};
    // lint: hot-ok(a new page per 512 keys, amortized doubling; no allocation per insert)
    pages_.emplace_back();
    return index;
  }

  void regrow(std::size_t slots) {
    std::vector<Slot> old = std::move(directory_);
    // lint: hot-ok(directory doubling per new high-water mark of pages)
    directory_.assign(slots, Slot{});
    shift_ = 64;
    for (std::size_t n = slots; n > 1; n >>= 1) --shift_;
    const std::size_t mask = slots - 1;
    for (const Slot& slot : old) {
      if (slot.index == kNoPage) continue;
      std::size_t i = home(slot.page_no);
      while (directory_[i].index != kNoPage) i = (i + 1) & mask;
      directory_[i] = slot;
    }
  }

  std::vector<Page> pages_;
  std::vector<Slot> directory_;  ///< power-of-two size, at most half full
  unsigned shift_ = 64;          ///< 64 - log2(directory_.size())
  std::uint32_t cached_index_ = kNoPage;  ///< page of the last insert
  std::uint64_t cached_page_no_ = 0;
  std::size_t size_ = 0;
};

}  // namespace halfback::transport
