// Three-tier indexed event queue: the storage engine behind sim::Scheduler.
//
// Callables live in a slot pool as allocation-free sim::EventFn; small
// 24-byte (time, seq, slot, gen) entries order them. Slots carry a
// generation counter with odd = pending, even = free: cancel() checks the
// id's generation, destroys the capture and releases the slot immediately —
// O(1) — and the stale ordering entry is dropped lazily when it surfaces.
//
// Ordering entries land in one of three tiers:
//
//  * Fine calendar: a ring of 2^B buckets, each spanning 2^G ps. An event
//    within the ring's horizon (2^(B+G) ps from `now`) is appended to
//    bucket (t >> G) & (2^B - 1) — a tiny 4-ary heap, almost always a
//    single entry at the default 1 ps grain. Push and pop are O(1) in
//    practice: the simulator's hottest events (poll iterations, timer
//    pacing, engine steps) all live here, and a two-level occupancy bitmap
//    (one bit per bucket, one summary bit per 64-bucket word) jumps the
//    ring scan straight to the next non-empty bucket even when the ring is
//    nearly empty. This tier is what closes the small-event gap against a
//    plain binary heap: no sift through unrelated far-future timers, no
//    comparator-driven cache misses.
//  * Coarse calendar: the same ring structure at 128x the grain over a
//    quarter of the buckets, covering 32x the horizon in a quarter of the
//    cache footprint. It catches the mid-range delays the fine ring can't
//    hold — link serializations, DMA-step spacing, cancel-heavy retry
//    timers — where one global heap pays a full sift per reschedule. At
//    the default geometry the coarse grain still spreads those classes at
//    around one entry per bucket, so its bucket mini-heaps degenerate to
//    single appends too.
//  * Far heap: the 4-ary hole-sift min-heap for everything beyond both
//    horizons (completion timeouts, watchdogs, fault windows). Stale
//    entries are compacted away when they outnumber live ones.
//
// The tiers preserve one total (time, seq) order: a pop compares the two
// calendar heads with the heap head. Ring-distance equals time order for
// live calendar entries (an event is only filed in a ring when its bucket
// lies within one horizon of `now`, and `now` never passes a live entry),
// so the first live entry in ring order from now's bucket IS that ring's
// minimum.
//
// The queue is clock-less: the Scheduler owns time and the `seq` tiebreak
// and passes both in.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/event_fn.h"

namespace tca::sim {

namespace detail {

/// Ordering entry shared by all tiers. 24 bytes so sifts move no callable
/// state; the EventFn stays in its slot until fire/cancel.
struct QEntry {
  TimePs time;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

inline bool earlier(const QEntry& a, const QEntry& b) {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}

/// Hole-style 4-ary heap sifts over a vector<QEntry>: the displaced entry
/// rides in a register while holes shift, one 24-byte move per level.
inline void heap_sift_up(std::vector<QEntry>& h, std::size_t i) {
  QEntry* d = h.data();
  const QEntry e = d[i];
  while (i != 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, d[parent])) break;
    d[i] = d[parent];
    i = parent;
  }
  d[i] = e;
}

inline void heap_sift_down(std::vector<QEntry>& h, std::size_t i, QEntry e) {
  QEntry* d = h.data();
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(d[c], d[best])) best = c;
    }
    if (!earlier(d[best], e)) break;
    d[i] = d[best];
    i = best;
  }
  d[i] = e;
}

inline void heap_push(std::vector<QEntry>& h, const QEntry& e) {
  h.push_back(e);
  heap_sift_up(h, h.size() - 1);
}

/// Removes h[0], refilling the hole with the last entry sifted down.
inline void heap_pop(std::vector<QEntry>& h) {
  const QEntry last = h.back();
  h.pop_back();
  if (!h.empty()) heap_sift_down(h, 0, last);
}

/// Rebuilds heap order in place after external filtering. Internal nodes of
/// a 4-ary heap are 0..(n-2)/4, so (n+2)/4 of them need sifting; n/4 would
/// skip the last one when n % 4 is 2 or 3, leaving a heap-order violation
/// that later pops would surface as time running backwards.
inline void heapify(std::vector<QEntry>& h) {
  for (std::size_t i = (h.size() + 2) / 4; i-- > 0;) {
    heap_sift_down(h, i, h[i]);
  }
}

}  // namespace detail

class IndexedQueue {
 public:
  /// Handle for one pending event: the slot index plus the (odd) generation
  /// the slot carried when the event was filed. The caller packs these into
  /// its public EventId.
  struct Ref {
    std::uint32_t index;
    std::uint32_t gen;
  };

  /// The (time, seq) position of an event in the global fire order.
  struct Key {
    TimePs time;
    std::uint64_t seq;
  };

  /// Fine ring geometry (log2 of the bucket span in ps, log2 of the bucket
  /// count): 1 ps x 4096 buckets ~ 4 ns of horizon. Deliberately fine: the
  /// simulator's densest event class — sub-200-ps poll iterations, timer
  /// pacing, engine steps — lands at ~1 entry per fine bucket, so push is a
  /// plain append and pop never sifts; a coarser fine grain piles that class
  /// into a few buckets whose mini-heaps cost as much as one global heap.
  static constexpr unsigned kFineGranLog2 = 0;
  static constexpr unsigned kFineBucketsLog2 = 12;
  /// Coarse ring geometry: 128 ps x 1024 buckets ~ 131 ns, 32x the fine
  /// horizon in a quarter of its cache footprint. It covers the mid-range
  /// delay band — wire times, DMA steps, retry backoff — measured to be
  /// where a single fine-grained ring hands the far heap its worst
  /// cancel-heavy churn, still far under one entry per bucket, while the
  /// small footprint keeps sparse serial streams (one live TLP per link)
  /// from evicting the simulation's own working set. Everything past both
  /// horizons (timeouts, watchdogs) takes the far heap, where cancel stays
  /// O(1).
  static constexpr unsigned kCoarseGranLog2 = 7;
  static constexpr unsigned kCoarseBucketsLog2 = 10;
  // The two-level occupancy bitmap assumes whole 64-bucket words.
  static_assert(kFineBucketsLog2 >= 6 && kCoarseBucketsLog2 >= 6);

  IndexedQueue()
      : fine_(kFineGranLog2, kFineBucketsLog2),
        coarse_(kCoarseGranLog2, kCoarseBucketsLog2) {}

  IndexedQueue(const IndexedQueue&) = delete;
  IndexedQueue& operator=(const IndexedQueue&) = delete;

  /// Files `fn` at (t, seq). `now` only selects the tier; it must be the
  /// caller's current clock (<= t). Captures up to EventFn::kInlineBytes are
  /// constructed directly in their slot, no allocation.
  template <typename F>
  Ref schedule(TimePs t, TimePs now, std::uint64_t seq, F&& fn) {
    const std::uint32_t index = take_slot();
    slots_[index].fn.emplace(std::forward<F>(fn));
    return file_entry(t, now, seq, index);
  }

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or the ref is unknown. O(1); the stale ordering entry is
  /// dropped lazily (or compacted when stale entries outnumber live ones).
  bool cancel(Ref ref) {
    if (ref.index >= slots_.size()) return false;
    Slot& s = slots_[ref.index];
    // Only the one outstanding pending id carries the slot's current (odd)
    // generation; fired/cancelled ids went stale when the slot was released.
    if (s.gen != ref.gen) return false;
    s.fn = EventFn();  // free captured resources eagerly
    const std::uint8_t tier = s.tier;
    release_slot(ref.index);
    --live_;
    cache_valid_ = false;
    if (tier == kTierHeap) {
      --heap_live_;
      if (heap_.size() > 2 * heap_live_ && heap_.size() >= kCompactMin) {
        compact_heap();
      }
    } else {
      Calendar& c = tier == kTierFine ? fine_ : coarse_;
      // Cancelling any entry other than the ring minimum leaves that
      // minimum the earliest live entry; only its own cancel invalidates.
      if (c.min_valid && ref.index == c.min.slot) c.min_valid = false;
      --c.live;
      ++c.stale;
      if (c.stale > 64 && c.stale > 2 * c.live) compact_calendar(c);
    }
    return true;
  }

  /// Earliest live (time, seq), pruning stale heads on the way. Returns
  /// false when the queue is empty. The found position is cached so an
  /// immediately following pop_min does no second search.
  bool peek(TimePs now, Key* out) {
    if (!cache_valid_ && !find_min(now)) return false;
    if (live_ == 0) return false;
    *out = Key{cached_.time, cached_.seq};
    return true;
  }

  /// Pops the earliest live event. peek() must have returned true with no
  /// intervening schedule/cancel. Returns its key; moves the callable out.
  Key pop_min(EventFn* fn) {
    TCA_ASSERT(cache_valid_ && live_ > 0);
    const detail::QEntry e = cached_;
    if (cached_tier_ != kTierHeap) {
      Calendar& c = cached_tier_ == kTierFine ? fine_ : coarse_;
      std::vector<detail::QEntry>& b = c.buckets[cached_bucket_];
      TCA_ASSERT(!b.empty() && b.front().slot == e.slot);
      detail::heap_pop(b);
      if (b.empty()) c.clear_bit(cached_bucket_);
      --c.live;
      c.min_valid = false;  // popped this ring's minimum
    } else {
      TCA_ASSERT(!heap_.empty() && heap_.front().slot == e.slot);
      detail::heap_pop(heap_);
      --heap_live_;
    }
    Slot& s = slots_[e.slot];
    *fn = std::move(s.fn);
    release_slot(e.slot);
    --live_;
    cache_valid_ = false;
    return Key{e.time, e.seq};
  }

  [[nodiscard]] std::uint64_t live() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Tier occupancy, for tests and diagnostics.
  [[nodiscard]] std::uint64_t calendar_live() const {
    return fine_.live + coarse_.live;
  }
  [[nodiscard]] std::uint64_t heap_live() const { return heap_live_; }

 private:
  /// Heap size below which cancel() never bothers compacting.
  static constexpr std::size_t kCompactMin = 64;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  static constexpr std::uint8_t kTierFine = 0;
  static constexpr std::uint8_t kTierCoarse = 1;
  static constexpr std::uint8_t kTierHeap = 2;

  /// `gen` parity tracks state: odd = pending, even = free. Every release
  /// (fire or cancel) bumps it, so stale refs and stale ordering entries are
  /// recognized by a single compare. `tier` records where the ordering entry
  /// lives so cancel can keep per-tier live counts without searching.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
    std::uint8_t tier = 0;
  };

  /// One calendar ring: bucket vectors (each a tiny 4-ary heap), two-level
  /// occupancy bitmap, live/stale counts, and a memoized minimum.
  struct Calendar {
    Calendar(unsigned gran, unsigned buckets_log2)
        : gran_log2(gran),
          nbuckets(std::size_t{1} << buckets_log2),
          bmask(nbuckets - 1),
          buckets(nbuckets),
          bitmap(nbuckets / 64, 0),
          summary((nbuckets / 64 + 63) / 64, 0) {}

    [[nodiscard]] std::uint64_t bucket_abs(TimePs t) const {
      return static_cast<std::uint64_t>(t) >> gran_log2;
    }

    /// True when `t` falls inside this ring's horizon as seen from `now`
    /// (unsigned wrap sends t < now to the far heap, same as out-of-range).
    [[nodiscard]] bool in_horizon(TimePs t, TimePs now) const {
      return bucket_abs(t) - bucket_abs(now) < nbuckets;
    }

    void set_bit(std::size_t b) {
      bitmap[b >> 6] |= std::uint64_t{1} << (b & 63);
      summary[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
    }
    void clear_bit(std::size_t b) {
      std::uint64_t& w = bitmap[b >> 6];
      w &= ~(std::uint64_t{1} << (b & 63));
      if (w == 0) summary[b >> 12] &= ~(std::uint64_t{1} << ((b >> 6) & 63));
    }

    static constexpr std::size_t kNoBucket = ~std::size_t{0};

    /// First occupied bucket scanning the ring from `from` (inclusive),
    /// wrapping once; kNoBucket when every bucket is empty. The summary
    /// bitmap jumps over empty 64-bucket words, so a sparse ring costs a
    /// handful of word reads instead of a word-by-word walk.
    [[nodiscard]] std::size_t next_occupied(std::size_t from) const {
      const std::uint64_t head =
          bitmap[from >> 6] & (~std::uint64_t{0} << (from & 63));
      if (head != 0) {
        return ((from >> 6) << 6) +
               static_cast<std::size_t>(std::countr_zero(head));
      }
      // Summary scan, ring order, starting strictly after `from`'s word.
      // The final pass revisits that word in full: its remaining set bits
      // all lie below `from` (the masked head above was zero), i.e. one
      // wrap away.
      const std::size_t swords = summary.size();
      std::size_t sw = from >> 12;
      const unsigned used = static_cast<unsigned>((from >> 6) & 63) + 1;
      std::uint64_t s =
          used == 64 ? 0 : summary[sw] & (~std::uint64_t{0} << used);
      for (std::size_t pass = 0; pass <= swords; ++pass) {
        if (s != 0) {
          const std::size_t w =
              (sw << 6) + static_cast<std::size_t>(std::countr_zero(s));
          return (w << 6) +
                 static_cast<std::size_t>(std::countr_zero(bitmap[w]));
        }
        sw = sw + 1 == swords ? 0 : sw + 1;
        s = summary[sw];
      }
      return kNoBucket;
    }

    const unsigned gran_log2;
    const std::size_t nbuckets;
    const std::size_t bmask;

    // Two-level occupancy: one bitmap bit per bucket, one summary bit per
    // 64-bucket bitmap word.
    std::vector<std::vector<detail::QEntry>> buckets;
    std::vector<std::uint64_t> bitmap;
    std::vector<std::uint64_t> summary;
    std::uint64_t live = 0;
    std::uint64_t stale = 0;

    // Memoized ring minimum (live entry). Valid until that entry is popped
    // or cancelled; pushes of earlier entries update it in place.
    bool min_valid = false;
    std::size_t min_bucket = 0;
    detail::QEntry min{};
  };

  std::uint32_t take_slot() {
    std::uint32_t index;
    if (free_head_ != kNilSlot) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    ++slots_[index].gen;  // even (free) -> odd (pending)
    return index;
  }

  void release_slot(std::uint32_t index) {
    Slot& s = slots_[index];
    ++s.gen;  // odd (pending) -> even (free)
    s.next_free = free_head_;
    free_head_ = index;
  }

  Ref file_entry(TimePs t, TimePs now, std::uint64_t seq,
                 std::uint32_t index) {
    Slot& s = slots_[index];
    const detail::QEntry e{t, seq, index, s.gen};
    if (fine_.in_horizon(t, now)) {
      file_calendar(fine_, e);
      s.tier = kTierFine;
    } else if (coarse_.in_horizon(t, now)) {
      file_calendar(coarse_, e);
      s.tier = kTierCoarse;
    } else {
      detail::heap_push(heap_, e);
      ++heap_live_;
      s.tier = kTierHeap;
    }
    ++live_;
    // A new earliest event would make the cached minimum wrong; recompute
    // lazily unless the new entry provably sorts after it.
    if (cache_valid_ && detail::earlier(e, cached_)) cache_valid_ = false;
    return Ref{index, s.gen};
  }

  void file_calendar(Calendar& c, const detail::QEntry& e) {
    const std::size_t b =
        static_cast<std::size_t>(c.bucket_abs(e.time)) & c.bmask;
    detail::heap_push(c.buckets[b], e);
    c.set_bit(b);
    ++c.live;
    // Track the ring minimum incrementally: a new earliest entry replaces
    // it in O(1), anything later leaves it untouched.
    if (c.min_valid && detail::earlier(e, c.min)) {
      c.min = e;
      c.min_bucket = b;
    }
  }

  /// Recomputes `c.min`: the first live entry in ring order from now's
  /// bucket (see file comment for why ring order is time order). During the
  /// scan only buckets whose bit is set are visited; a bucket that turns
  /// out to be all-stale is emptied and its bit cleared, so the resume from
  /// b+1 cannot revisit it.
  void rescan_calendar(Calendar& c, TimePs now) {
    std::size_t b = static_cast<std::size_t>(c.bucket_abs(now)) & c.bmask;
    for (;;) {
      b = c.next_occupied(b);
      if (b == Calendar::kNoBucket) return;
      std::vector<detail::QEntry>& bucket = c.buckets[b];
      while (!bucket.empty()) {
        const detail::QEntry& top = bucket.front();
        if (slots_[top.slot].gen == top.gen) {
          c.min = top;
          c.min_bucket = b;
          c.min_valid = true;
          return;
        }
        detail::heap_pop(bucket);
        --c.stale;
      }
      c.clear_bit(b);
      b = (b + 1) & c.bmask;
    }
  }

  /// Locates the earliest live entry across all tiers, pruning stale heads
  /// as it goes, and fills the pop cache. False when nothing is live.
  bool find_min(TimePs now) {
    // Calendars first: each ring's minimum is memoized across calls —
    // pushes track it incrementally and only popping or cancelling the
    // minimum itself forces a rescan — so a pop served by one tier touches
    // no bucket of the others.
    bool have = false;
    if (fine_.live > 0) {
      if (!fine_.min_valid) rescan_calendar(fine_, now);
      if (fine_.min_valid) {
        cached_ = fine_.min;
        cached_tier_ = kTierFine;
        cached_bucket_ = fine_.min_bucket;
        have = true;
      }
    }
    if (coarse_.live > 0) {
      if (!coarse_.min_valid) rescan_calendar(coarse_, now);
      if (coarse_.min_valid &&
          (!have || detail::earlier(coarse_.min, cached_))) {
        cached_ = coarse_.min;
        cached_tier_ = kTierCoarse;
        cached_bucket_ = coarse_.min_bucket;
        have = true;
      }
    }
    // Far tier: the heap front — live or stale — is a lower bound on every
    // heap entry, so once a calendar minimum sorts before it nothing in
    // the heap can matter and stale heads stay put for the amortized bulk
    // compaction in cancel(). Pruning them here one sift at a time is what
    // made cancel-heavy loads pay per-pop instead (a stale front is only
    // popped when it actually blocks the decision).
    while (!heap_.empty()) {
      const detail::QEntry& top = heap_.front();
      if (have && !detail::earlier(top, cached_)) break;
      if (slots_[top.slot].gen == top.gen) {
        cached_ = top;
        cached_tier_ = kTierHeap;
        have = true;
        break;
      }
      detail::heap_pop(heap_);
    }
    cache_valid_ = have;
    return have;
  }

  /// Drops stale far-heap entries and rebuilds the heap in place. Fire order
  /// is untouched: pops follow the (time, seq) total order, not the array
  /// layout.
  void compact_heap() {
    std::size_t out = 0;
    for (const detail::QEntry& e : heap_) {
      if (slots_[e.slot].gen == e.gen) heap_[out++] = e;
    }
    heap_.resize(out);
    detail::heapify(heap_);
  }

  /// Sweeps cancelled entries out of every bucket of one ring. Rare: only
  /// when stale entries outnumber live ones (cancel storms aimed inside the
  /// horizon), so the cost amortizes like the far-heap compaction. The
  /// memoized minimum survives: it is a live entry, and heapify keeps each
  /// bucket's earliest live entry at the front.
  void compact_calendar(Calendar& c) {
    for (std::size_t b = 0; b < c.nbuckets; ++b) {
      std::vector<detail::QEntry>& bucket = c.buckets[b];
      if (bucket.empty()) continue;
      std::size_t out = 0;
      for (const detail::QEntry& e : bucket) {
        if (slots_[e.slot].gen == e.gen) bucket[out++] = e;
      }
      bucket.resize(out);
      detail::heapify(bucket);
      if (bucket.empty()) c.clear_bit(b);
    }
    c.stale = 0;
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t live_ = 0;

  // Near-now calendar rings: fine for the hot sub-horizon classes, coarse
  // for the mid-range delay band.
  Calendar fine_;
  Calendar coarse_;

  // Far heap.
  std::vector<detail::QEntry> heap_;
  std::uint64_t heap_live_ = 0;

  // Pop cache filled by find_min.
  bool cache_valid_ = false;
  std::uint8_t cached_tier_ = kTierHeap;
  std::size_t cached_bucket_ = 0;
  detail::QEntry cached_{};
};

}  // namespace tca::sim
