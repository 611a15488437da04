// Priority queue of timed events for the discrete-event simulator.
//
// Events at the same timestamp fire in insertion order (a monotonically
// increasing sequence number breaks ties), which keeps simulations
// deterministic regardless of queue internals.
//
// Hot-path design (this queue is the inner loop of every experiment):
//   - Callbacks are hib::InplaceFunction, sized so every simulator / array /
//     policy capture fits inline — no heap allocation per event.
//   - Liveness is tracked in a slot arena indexed by the low bits of the
//     EventId; the high bits carry the event's unique sequence number, which
//     doubles as the slot's generation stamp (a reused slot gets a new seq,
//     so stale ids can never alias a live event).  Schedule, Cancel and the
//     liveness check on pop are O(1) array accesses; there are no hash-set
//     operations anywhere.
//   - Ordering uses a two-tier structure (a simplified ladder queue) instead
//     of a binary heap.  A comparison heap's pop is a sift whose serialized
//     compare chain costs ~200 cycles regardless of arity or branch strategy;
//     here pops are O(1).  The `near` tier is a small array of the earliest
//     events, sorted descending so the global minimum is a pop_back.  The
//     `far` tier is an unsorted vector (O(1) insert).  When near drains, one
//     O(far) nth_element selects the next batch, amortizing to ~constant work
//     per event.  The boundary key `horizon_` keeps the invariant: every far
//     entry is at or after the horizon, every near entry is before it.
//   - Cancellation is lazy: a stale entry is skipped on pop (near) or dropped
//     during the refill scan (far).  If stale entries come to dominate
//     between refills, Cancel purges the far tier directly — timer-heavy
//     policies can't grow the queue without bound.
//   - Slots live in fixed-size chunks whose storage never moves, so FireNext
//     can run a callback directly from its slot (zero relocations per event)
//     even when the callback schedules new events.
//   - Everything is defined inline here: Schedule/FireNext are a few array
//     writes, and keeping them visible to the caller's TU lets the compiler
//     fold the id packing and slot bookkeeping away.
#ifndef HIBERNATOR_SRC_SIM_EVENT_QUEUE_H_
#define HIBERNATOR_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/util/check.h"
#include "src/util/inplace_function.h"
#include "src/util/thread_annotations.h"
#include "src/util/units.h"

namespace hib {

// Every scheduled capture in the repo fits in 96 bytes (the largest is the
// disk service-completion lambda: this + completion time + a DiskRequest with
// its embedded std::function).  A capture that outgrows this fails to
// compile in InplaceFunction's constructor rather than silently allocating.
inline constexpr std::size_t kEventCallbackCapacity = 96;
using EventCallback = InplaceFunction<void(), kEventCallbackCapacity>;

// Packed (seq << 24) | slot.  40 bits of sequence number cover ~10^12 events
// (a 24h experiment fires ~10^8); 24 bits of slot index cover 16M events
// pending at once.  Both limits are HIB_CHECKed.
using EventId = std::uint64_t;

// Shard-local: owned by exactly one Simulator, which is itself shard-owned
// (simlint HIB022 tracks escapes of its address).
class HIB_SHARD_LOCAL EventQueue {
 public:
  // Schedules `cb` at absolute time `when`; returns an id usable with Cancel.
  // The already-type-erased overload (the Simulator's ScheduleAt/ScheduleIn
  // funnel through it) relocates once; the template overload constructs the
  // callable directly in its slot with no relocation at all.
  EventId Schedule(SimTime when, EventCallback cb) {
    std::uint32_t slot = AcquireSlot();
    SlotRef(slot).callback = std::move(cb);
    return PushEntry(when, slot);
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventId Schedule(SimTime when, F&& cb) {
    std::uint32_t slot = AcquireSlot();
    SlotRef(slot).callback.Emplace(std::forward<F>(cb));
    return PushEntry(when, slot);
  }

  // Cancels a pending event; returns false if it already fired or was
  // cancelled.  O(1): clears the slot's seq stamp so the queue entry goes
  // stale.
  bool Cancel(EventId id) {
    std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    if (slot >= num_slots_ || SlotRef(slot).seq != (id >> kSlotBits)) {
      return false;  // already fired, already cancelled, or never existed
    }
    ReleaseSlot(slot);
    --live_count_;
    // Stale far entries are normally dropped by the refill scan, but a queue
    // whose near tier never drains would accumulate them forever; purge once
    // they outnumber live events.  O(far) amortized against the cancels that
    // created the junk.
    std::size_t entries = near_.size() + far_.size();
    if (entries > kPurgeMinSize && entries - live_count_ > live_count_) {
      PurgeFar();
    }
    return true;
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Pre-sizes the far tier and slot arena for roughly `events` concurrently
  // pending events, so multi-million-event runs don't pay growth reallocations.
  void Reserve(std::size_t events) {
    far_.reserve(events);
    near_.reserve(std::min(events, kRefillMax) + 1);
    free_slots_.reserve(events);
    slot_chunks_.reserve((events >> kSlotChunkShift) + 1);
  }

  // Time of the earliest pending (non-cancelled) event; only valid when !empty().
  SimTime NextTime() {
    EnsureHead();
    HIB_DCHECK(!near_.empty()) << "NextTime on an empty queue";
    return near_.back().time;
  }

  // Pops the earliest event and invokes its callback in place — the
  // zero-relocation dispatch path used by Simulator::RunUntil.  The event's
  // time is stored through `now` *before* the callback runs, so callbacks
  // observe the correct simulation time.  Only valid when !empty().
  void FireNext(SimTime* now) {
    EnsureHead();
    HIB_DCHECK(!near_.empty()) << "FireNext on an empty queue";
    Entry e = near_.back();
    near_.pop_back();
    Slot& s = SlotRef(static_cast<std::uint32_t>(e.key & kSlotMask));
    // Invalidate the id before invoking: a Cancel from inside the callback
    // must report "already fired", exactly as it would after a pop.
    s.seq = 0;
    --live_count_;
    *now = e.time;
    // The callback runs from its slot: chunk storage never moves, and the
    // slot isn't on the free list yet, so nested Schedule calls can't clobber
    // it.  It becomes reusable only after the call returns.
    s.callback();
    s.callback = nullptr;
    free_slots_.push_back(static_cast<std::uint32_t>(e.key & kSlotMask));
  }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    SimTime time;
    std::uint64_t key = 0;  // (seq << kSlotBits) | slot — also the EventId
  };
  struct Slot {
    EventCallback callback;
    std::uint64_t seq = 0;  // seq of the pending event; 0 = free or stale
  };

  // Strict total order on (time, seq); seq occupies the key's high bits, so
  // comparing keys compares seqs (two entries never share a seq).  Written
  // with bitwise | and & so the compiler lowers it to flag arithmetic instead
  // of two data-dependent branches.
  static bool Later(const Entry& a, const Entry& b) {
    return (a.time > b.time) |
           ((a.time == b.time) & (a.key > b.key));
  }

  // The near tier holds at most this many entries, so each sorted insert
  // moves at most ~2 KB.  Refills pull up to this many events at once.
  static constexpr std::size_t kNearCapacity = 128;
  // Below this many total entries, purging isn't worth the pass.
  static constexpr std::size_t kPurgeMinSize = 64;
  // Upper bound on one refill batch, capping near_'s size and the worst-case
  // single-refill sort.
  static constexpr std::size_t kRefillMax = 4096;
  // Below this batch size std::sort beats the radix passes' fixed costs.
  static constexpr std::size_t kRadixMinSize = 64;
  // Slots per chunk.  Chunks are never freed or moved while the queue lives,
  // which is what makes in-place callback execution (FireNext) safe.
  static constexpr std::uint32_t kSlotChunkShift = 6;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

  Slot& SlotRef(std::uint32_t slot) {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }
  const Slot& SlotRef(std::uint32_t slot) const {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }

  EventId PushEntry(SimTime when, std::uint32_t slot) {
    std::uint64_t seq = next_seq_++;
    HIB_CHECK(seq < (1ull << (64 - kSlotBits))) << "event sequence space exhausted";
    SlotRef(slot).seq = seq;
    EventId id = (seq << kSlotBits) | slot;
    Entry e{when, id};
    ++live_count_;
    if (!Later(e, horizon_)) {
      InsertNear(e);
    } else {
      far_.push_back(e);
    }
    return id;
  }

  // Inserts into the near tier, keeping it sorted descending (earliest at the
  // back).  DES inserts skew toward the near future, i.e. toward the back of
  // the array, so the memmove is usually short.  A full (or refill-oversized)
  // tier spills its later half back to far in one pass and lowers the
  // horizon, so sustained insert pressure amortizes to O(1) per event instead
  // of paying a per-insert eviction — the spilled entries get ordered by the
  // next refill's selection anyway.
  void InsertNear(const Entry& e) {
    if (near_.size() >= kNearCapacity) {
      std::size_t spill = near_.size() / 2;
      far_.insert(far_.end(), near_.begin(),
                  near_.begin() + static_cast<std::ptrdiff_t>(spill));
      horizon_ = near_[spill - 1];
      near_.erase(near_.begin(),
                  near_.begin() + static_cast<std::ptrdiff_t>(spill));
      if (Later(e, horizon_)) {
        far_.push_back(e);  // the halving moved the boundary below e
        return;
      }
    }
    near_.insert(near_.begin() + static_cast<std::ptrdiff_t>(UpperBoundDesc(e)),
                 e);
  }

  // Index of the first near entry not Later than e (the insertion point in
  // the descending array).  Branch-free selection: std::upper_bound's
  // data-dependent branch mispredicts on ~half its probes, which at ~7 probes
  // costs more than the insert's memmove; with conditional moves the search
  // is a short chain of L1 loads.
  std::size_t UpperBoundDesc(const Entry& e) const {
    const Entry* base = near_.data();
    std::size_t lo = 0;
    std::size_t len = near_.size();
    while (len > 0) {
      std::size_t half = len >> 1;
      bool later = Later(base[lo + half], e);
      lo = later ? lo + half + 1 : lo;
      len = later ? len - half - 1 : half;
    }
    return lo;
  }

  // Makes near_.back() the earliest live event.  Near entries cancelled in
  // place are popped off here in O(1); when near drains, one O(far) pass
  // drops stale far entries and selects the next kNearCapacity earliest.
  void EnsureHead() {
    for (;;) {
      while (!near_.empty() && !IsLive(near_.back())) {
        near_.pop_back();
      }
      if (!near_.empty() || far_.empty()) {
        return;
      }
      Refill();
    }
  }

  void Refill() {
    // near_ is empty here, so every live event is in far_: a size mismatch is
    // the exact count of stale entries, and a match means the O(far) liveness
    // scan can be skipped entirely (the common case in cancel-free phases).
    if (far_.size() != live_count_) {
      far_.erase(std::remove_if(far_.begin(), far_.end(),
                                [this](const Entry& e) { return !IsLive(e); }),
                 far_.end());
    }
    // Take the whole backlog (capped) in one batch: a single radix sort of N
    // entries is far cheaper than log(N) rounds of comparison sorting, and
    // pops out of a sorted array are O(1).
    std::size_t take = std::min(far_.size(), kRefillMax);
    if (take == 0) {
      horizon_ = Entry{std::numeric_limits<SimTime>::infinity(), ~0ull};
      return;
    }
    if (take < far_.size()) {
      // Partition so the `take` earliest entries sit at the tail (cheap to
      // move out); everything left in far_ is Later than all of them.
      std::nth_element(
          far_.begin(),
          far_.begin() + static_cast<std::ptrdiff_t>(far_.size() - take - 1),
          far_.end(), Later);
    }
    near_.assign(far_.end() - static_cast<std::ptrdiff_t>(take), far_.end());
    far_.resize(far_.size() - take);
    SortNearDescending();
    horizon_ = far_.empty()
                   ? Entry{std::numeric_limits<SimTime>::infinity(), ~0ull}
                   : near_.front();
  }

  // Maps a non-NaN double to a u64 whose unsigned order matches the double's
  // numeric order (the usual sign-flip trick, branch-free for negatives too).
  static std::uint64_t AscendingTimeBits(SimTime t) {
    std::uint64_t b = std::bit_cast<std::uint64_t>(t);
    std::uint64_t mask =
        static_cast<std::uint64_t>(-static_cast<std::int64_t>(b >> 63));
    return b ^ (mask | 0x8000000000000000ull);
  }

  // Sorts near_ descending by (time, seq).  Comparison sorts on random data
  // mispredict roughly every other compare, which makes std::sort the single
  // most expensive piece of a drain; above a small cutoff an LSD radix sort
  // on the timestamp bits is several times cheaper and branch-free.  Radix
  // passes whose digit is constant across the batch (the common case for the
  // high bytes of clustered simulation times) are skipped via a one-pass
  // histogram.  Ties in time are then ordered by seq in a cleanup scan that
  // costs one predictable compare per entry when there are none.
  void SortNearDescending() {
    std::size_t n = near_.size();
    if (n < kRadixMinSize) {
      std::sort(near_.begin(), near_.end(), Later);
      return;
    }
    scratch_.resize(n);
    // Complemented ascending bits sort descending.  All eight histograms are
    // built in one pass (2 KB of counters, L1-resident).
    std::uint32_t hist[8][256];
    std::memset(hist, 0, sizeof(hist));
    for (const Entry& e : near_) {
      std::uint64_t u = ~AscendingTimeBits(e.time);
      for (unsigned d = 0; d < 8; ++d) {
        ++hist[d][(u >> (8 * d)) & 0xff];
      }
    }
    const std::uint64_t u0 = ~AscendingTimeBits(near_[0].time);
    Entry* src = near_.data();
    Entry* dst = scratch_.data();
    for (unsigned d = 0; d < 8; ++d) {
      std::uint32_t* h = hist[d];
      // If every entry shares this digit, the pass is the identity: skip it.
      if (h[(u0 >> (8 * d)) & 0xff] == n) {
        continue;
      }
      std::uint32_t offset = 0;
      for (unsigned b = 0; b < 256; ++b) {
        std::uint32_t count = h[b];
        h[b] = offset;
        offset += count;
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t u = ~AscendingTimeBits(src[i].time);
        dst[h[(u >> (8 * d)) & 0xff]++] = src[i];
      }
      std::swap(src, dst);
    }
    if (src != near_.data()) {
      std::memcpy(near_.data(), src, n * sizeof(Entry));
    }
    // Equal timestamps must still pop in seq order; radix only ordered by
    // time, so sort any run of equal times by the full key.
    for (std::size_t i = 0; i + 1 < n;) {
      if (near_[i].time != near_[i + 1].time) {
        ++i;
        continue;
      }
      std::size_t j = i + 2;
      while (j < n && near_[j].time == near_[i].time) {
        ++j;
      }
      std::sort(near_.begin() + static_cast<std::ptrdiff_t>(i),
                near_.begin() + static_cast<std::ptrdiff_t>(j), Later);
      i = j;
    }
  }

  // Drops every stale entry from the far tier (no ordering to maintain).
  void PurgeFar() {
    far_.erase(std::remove_if(far_.begin(), far_.end(),
                              [this](const Entry& e) { return !IsLive(e); }),
               far_.end());
  }

  bool IsLive(const Entry& e) const {
    return SlotRef(static_cast<std::uint32_t>(e.key & kSlotMask)).seq ==
           (e.key >> kSlotBits);
  }

  std::uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    HIB_CHECK(num_slots_ < kSlotMask) << "event slot arena exhausted";
    if ((num_slots_ >> kSlotChunkShift) == slot_chunks_.size()) {
      // Amortized arena growth, once per kSlotChunkSize acquisitions; Reserve()
      // front-loads it so a sized run never takes this branch.
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));  // NOLINT(HIB018)
    }
    return num_slots_++;
  }

  void ReleaseSlot(std::uint32_t slot) {
    // Clearing the seq stamp invalidates both the queue entry and any EventId
    // still held by a caller; the slot is immediately safe to reuse because a
    // reuse gets a fresh (globally unique) seq.
    Slot& s = SlotRef(slot);
    s.seq = 0;
    s.callback = nullptr;
    free_slots_.push_back(slot);
  }

  // Earliest events, sorted descending by (time, seq): back() is the global
  // minimum.  Bounded by kNearCapacity (+1 transiently during insert).
  std::vector<Entry> near_;
  // Everything at or after horizon_, unsorted.
  std::vector<Entry> far_;
  // Radix-sort ping-pong buffer, reused across refills.
  std::vector<Entry> scratch_;
  // Every far entry is Later-or-equal, every near entry is earlier.  Starts
  // at +infinity so everything lands in near until the first spill.
  Entry horizon_{std::numeric_limits<SimTime>::infinity(), ~0ull};
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t num_slots_ = 0;
  std::uint64_t next_seq_ = 1;  // 0 is the "free / stale" slot stamp
  std::size_t live_count_ = 0;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_SIM_EVENT_QUEUE_H_
