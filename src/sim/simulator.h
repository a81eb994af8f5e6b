// Discrete-event simulation core.
//
// Events fire in a strict total order: (time, insertion sequence). The
// tie-break makes runs bit-for-bit reproducible for a given seed — two
// events scheduled for the same instant always fire in scheduling order,
// independent of heap internals.
//
// The per-event path allocates nothing once warm. A handler is stored
// inline (Handler: a fixed 48-byte buffer, no heap fallback) in a slot of
// a chunked slab whose addresses never move, and the queue is a 4-ary
// min-heap of 24-byte (time, seq, slot) keys. Freed slots are reused
// through a free list, so a run's allocations stop growing once the slab
// and heap reach the run's peak number of pending events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace paai::sim {

class Simulator {
 public:
  /// Move-only `void()` callable with inline storage. A capture larger
  /// than kCapacity bytes or aligned above kAlign fails to compile: there
  /// is no heap fallback, so scheduling never allocates for the handler.
  class Handler {
   public:
    static constexpr std::size_t kCapacity = 48;
    static constexpr std::size_t kAlign = 8;
    template <typename Fn>
    static constexpr bool kFits =
        sizeof(Fn) <= kCapacity && alignof(Fn) <= kAlign;

    Handler() = default;

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Handler>>>
    Handler(F&& fn) {  // NOLINT(google-explicit-constructor)
      static_assert(kFits<Fn>,
                    "event handler capture exceeds Handler::kCapacity bytes "
                    "or is over-aligned; capture a pointer instead");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "event handler must be nothrow-movable");
      static_assert(std::is_invocable_r_v<void, Fn&>,
                    "event handler must be callable as void()");
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      if constexpr (!std::is_trivially_copyable_v<Fn> ||
                    !std::is_trivially_destructible_v<Fn>) {
        manage_ = [](void* dst, void* src) noexcept {
          Fn* from = static_cast<Fn*>(src);
          if (dst != nullptr) ::new (dst) Fn(std::move(*from));
          from->~Fn();
        };
      }
    }

    Handler(Handler&& other) noexcept { take(other); }

    Handler& operator=(Handler&& other) noexcept {
      if (this != &other) {
        reset();
        take(other);
      }
      return *this;
    }

    Handler(const Handler&) = delete;
    Handler& operator=(const Handler&) = delete;

    ~Handler() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(buf_); }

   private:
    // Trivially copyable captures (pointers, ids, times) keep manage_ null
    // and move as a plain byte copy; others (PacketEnv's shared_ptr) move
    // by move-construct plus destroy of the source.
    using Invoke = void (*)(void*);
    using Manage = void (*)(void* dst, void* src) noexcept;

    void reset() noexcept {
      if (manage_ != nullptr) manage_(nullptr, buf_);
      invoke_ = nullptr;
      manage_ = nullptr;
    }

    void take(Handler& other) noexcept {
      if (other.manage_ != nullptr) {
        other.manage_(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kCapacity);
      }
      invoke_ = std::exchange(other.invoke_, nullptr);
      manage_ = std::exchange(other.manage_, nullptr);
    }

    alignas(kAlign) unsigned char buf_[kCapacity];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time t (>= now, else clamped to now).
  template <typename F>
  void at(SimTime t, F&& fn) {
    if (t < now_) t = now_;
    const std::uint32_t slot = acquire_slot();
    ::new (slot_storage(slot)) Handler(std::forward<F>(fn));
    push(Key{t, next_seq_++, slot});
  }

  /// Schedules `fn` after a relative delay (>= 0, else clamped).
  template <typename F>
  void after(SimDuration delay, F&& fn) {
    if (delay < 0) delay = 0;
    at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue empties.
  void run();

  /// Runs every event scheduled strictly before `t`, then sets now() = t.
  void run_until(SimTime t);

  bool empty() const { return heap_.empty(); }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  static bool before(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // One handler per cache line; chunks never move, so a handler runs in
  // place even when it schedules events that grow the slab.
  struct alignas(64) Slot {
    unsigned char bytes[sizeof(Handler)];
  };
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  void* slot_storage(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)].bytes;
  }
  Handler& slot_ref(std::uint32_t slot) {
    return *std::launder(static_cast<Handler*>(slot_storage(slot)));
  }

  std::uint32_t acquire_slot() {
    if (free_.empty()) grow_slab();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void grow_slab();
  void push(const Key& key);
  void pop_root();

  std::vector<Key> heap_;  // 4-ary min-heap on (time, seq)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  // free slots; back() is reused first
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace paai::sim
