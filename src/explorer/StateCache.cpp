//===- StateCache.cpp - Concurrent bounded fingerprint table ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/StateCache.h"

#include <algorithm>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif
#if defined(__linux__) && defined(MADV_HUGEPAGE)
#define CLOSER_HUGE_PAGE_TABLE 1
#endif

using namespace closer;

namespace {

#ifdef CLOSER_HUGE_PAGE_TABLE
constexpr uint64_t HugePageBytes = uint64_t{2} << 20;
#endif

/// Zeroed memory for \p Bytes of slots, touched by nobody: anonymous pages
/// are zero-filled on first touch, and calloc hands large requests to mmap
/// as well.
uint64_t *allocateSlots(uint64_t Bytes) {
#ifdef CLOSER_HUGE_PAGE_TABLE
  if (Bytes >= HugePageBytes) {
    // Over-map by one huge page, then trim both ends so the table starts
    // on a 2 MiB boundary (a multiple of 2 MiB, it then ends on one too).
    const uint64_t Len = Bytes + HugePageBytes;
    void *Raw = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Raw == MAP_FAILED)
      throw std::bad_alloc();
    char *Begin = static_cast<char *>(Raw);
    char *Table = reinterpret_cast<char *>(
        (reinterpret_cast<uintptr_t>(Begin) + HugePageBytes - 1) &
        ~(HugePageBytes - 1));
    const uint64_t Head = static_cast<uint64_t>(Table - Begin);
    if (Head)
      munmap(Begin, Head);
    if (Head != HugePageBytes)
      munmap(Table + Bytes, HugePageBytes - Head);
    // Only a hint: without transparent huge pages the table still works,
    // on base pages.
    madvise(Table, Bytes, MADV_HUGEPAGE);
    return reinterpret_cast<uint64_t *>(Table);
  }
#endif
  void *P = std::calloc(Bytes, 1);
  if (!P)
    throw std::bad_alloc();
  return static_cast<uint64_t *>(P);
}

void releaseSlots(uint64_t *Slots, uint64_t Bytes) {
#ifdef CLOSER_HUGE_PAGE_TABLE
  if (Bytes >= HugePageBytes) {
    munmap(Slots, Bytes);
    return;
  }
#endif
  (void)Bytes;
  std::free(Slots);
}

} // namespace

StateCache::StateCache(unsigned Bits) {
  Bits = std::min(std::max(Bits, MinBits), MaxBits);
  SlotCount = uint64_t{1} << Bits;

  // Shard so that (a) concurrent inserts usually land in different shards
  // and (b) a shard still holds enough slots that linear probing behaves.
  // 64 shards saturate any realistic worker count; tiny tables degenerate
  // to a single shard.
  unsigned ShardBits = Bits >= 10 ? 6 : (Bits > MinBits ? Bits - MinBits : 0);
  Shards = 1u << ShardBits;
  ShardSlots = SlotCount >> ShardBits;
  ShardMask = ShardSlots - 1;
  // A generous window: long enough that saturation only triggers when the
  // shard really is nearly full, short enough to bound the cost of probing
  // a full shard.
  ProbeLimit = std::min<uint64_t>(ShardSlots, 64);

  Slots = allocateSlots(SlotCount * sizeof(uint64_t));
}

StateCache::~StateCache() {
  releaseSlots(Slots, SlotCount * sizeof(uint64_t));
}

StateCache::Insert StateCache::insert(uint64_t Fp) {
  const uint64_t K = key(Fp);
  // High bits pick the shard, low bits the slot within it: key() has run
  // the fingerprint through a full-avalanche finalizer, so both selections
  // are well distributed and independent of each other.
  const uint64_t Base = ((K >> (64 - 6)) & (Shards - 1)) * ShardSlots;

  for (uint64_t I = 0; I != ProbeLimit; ++I) {
    std::atomic_ref<uint64_t> Slot = slot(Base + ((K + I) & ShardMask));
    uint64_t V = Slot.load(std::memory_order_relaxed);
    if (V == K)
      return Insert::Present;
    if (V == 0) {
      uint64_t Expected = 0;
      if (Slot.compare_exchange_strong(Expected, K,
                                       std::memory_order_relaxed))
        return Insert::Inserted;
      if (Expected == K)
        return Insert::Present; // Lost the race to an equal fingerprint.
      // A different fingerprint claimed the slot first; keep probing.
    }
  }
  // Probe window exhausted: the shard is (locally) full. The caller treats
  // the state as unseen and keeps searching — over-approximation is sound.
  return Insert::Saturated;
}

bool StateCache::contains(uint64_t Fp) const {
  const uint64_t K = key(Fp);
  const uint64_t Base = ((K >> (64 - 6)) & (Shards - 1)) * ShardSlots;
  for (uint64_t I = 0; I != ProbeLimit; ++I) {
    uint64_t V = slot(Base + ((K + I) & ShardMask)).load(
        std::memory_order_relaxed);
    if (V == K)
      return true;
    if (V == 0)
      return false;
  }
  return false;
}

uint64_t StateCache::entries() const {
  uint64_t Total = 0;
  for (uint64_t I = 0; I != SlotCount; ++I)
    Total += slot(I).load(std::memory_order_relaxed) != 0;
  return Total;
}
