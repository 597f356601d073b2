//===- StateCache.h - Concurrent bounded fingerprint table -----*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity concurrent set of 64-bit state fingerprints, the shared
/// visited-store behind `closer explore --state-cache [--jobs N]`.
///
/// Design:
///  * one power-of-two slot array, logically split into shards; a
///    fingerprint's shard is chosen by its high bits and probing never
///    leaves the shard, so concurrent inserts to different shards touch
///    disjoint cache lines;
///  * slots are lock-free: an empty slot is claimed with a single
///    compare-and-swap, so readers and writers never block and the table
///    is safe to consult from every worker of a parallel search;
///  * capacity is a hard bound (`--state-cache=BITS` => 2^BITS slots, 8
///    bytes each). When a shard's probe window is full the insert reports
///    Saturated and the caller keeps searching without pruning — a sound
///    over-approximation (states may be re-explored, never skipped), the
///    standard hashing-ablation compromise from VeriSoft-era tools;
///  * a table of 2 MiB or more is one 2 MiB-aligned anonymous mapping
///    marked for transparent huge pages (Linux), so a random probe costs a
///    cache miss but rarely a TLB miss. Nothing zeroes it: the kernel's
///    fresh pages already read as empty slots.
///
/// All atomics are relaxed: a slot's value is the entire payload, so no
/// other memory needs to be published alongside it. The worst a racing
/// reader can observe is "not present yet", which only costs a duplicate
/// exploration attempt that the winning inserter's entry then cuts short.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_STATECACHE_H
#define CLOSER_EXPLORER_STATECACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace closer {

class StateCache {
public:
  /// Outcome of insert(): the fingerprint was stored for the first time,
  /// was already stored, or could not be stored because its probe window
  /// is full (the caller must then treat the state as unseen).
  enum class Insert { Inserted, Present, Saturated };

  static constexpr unsigned MinBits = 4;
  static constexpr unsigned MaxBits = 30;
  /// 2^20 slots = 8 MiB, the `--state-cache` default.
  static constexpr unsigned DefaultBits = 20;

  /// Builds a table of 2^Bits slots. Bits outside [MinBits, MaxBits] are
  /// clamped (SearchOptions::validate() rejects them before a CLI run gets
  /// here). Throws std::bad_alloc when the table cannot be allocated.
  explicit StateCache(unsigned Bits);
  ~StateCache();

  StateCache(const StateCache &) = delete;
  StateCache &operator=(const StateCache &) = delete;

  /// Inserts \p Fp if absent. Safe to call concurrently from any number of
  /// threads; for a given fingerprint, exactly one caller ever observes
  /// Inserted.
  Insert insert(uint64_t Fp);

  /// Whether \p Fp is currently stored (no side effects).
  bool contains(uint64_t Fp) const;

  uint64_t capacity() const { return SlotCount; }
  /// Stored fingerprints (exact once concurrent inserts have quiesced). A
  /// full scan of the slot array: the table keeps no fill counter, so an
  /// insert costs one CAS on its slot and nothing else.
  uint64_t entries() const;
  unsigned shardCount() const { return Shards; }

private:
  /// The stored form of a fingerprint. The finalizer spreads entropy into
  /// the high bits (which pick the shard) and the low bits (which pick the
  /// slot), so the table does not depend on the caller's hash quality —
  /// sequential or low-entropy fingerprints would otherwise pile into one
  /// shard and saturate it while the rest sit empty. A result of 0 is
  /// remapped so 0 can mean "empty slot".
  static uint64_t key(uint64_t Fp) {
    uint64_t K = Fp;
    K ^= K >> 30;
    K *= 0xbf58476d1ce4e5b9ull;
    K ^= K >> 27;
    K *= 0x94d049bb133111ebull;
    K ^= K >> 31;
    return K ? K : 0x9e3779b97f4a7c15ull;
  }

  /// Accessed only through std::atomic_ref: the array is plain zeroed
  /// memory from the allocator or the kernel, never constructed.
  std::atomic_ref<uint64_t> slot(uint64_t I) const {
    return std::atomic_ref<uint64_t>(Slots[I]);
  }

  uint64_t *Slots = nullptr;
  uint64_t SlotCount = 0;
  /// Number of shards (power of two) and slots per shard.
  unsigned Shards = 1;
  uint64_t ShardSlots = 0;
  uint64_t ShardMask = 0;
  /// Probes before giving up; bounds worst-case insert cost and defines
  /// the saturation point of a nearly-full shard.
  uint64_t ProbeLimit = 0;
};

} // namespace closer

#endif // CLOSER_EXPLORER_STATECACHE_H
