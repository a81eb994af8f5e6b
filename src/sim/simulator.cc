#include "sim/simulator.h"

#include "obs/profile.h"

namespace paai::sim {

Simulator::~Simulator() {
  for (const Key& key : heap_) slot_ref(key.slot).~Handler();
}

void Simulator::grow_slab() {
  const auto base = static_cast<std::uint32_t>(chunks_.size()) * kChunkSlots;
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  free_.reserve(static_cast<std::size_t>(base) + kChunkSlots);
  for (std::uint32_t i = kChunkSlots; i-- > 0;) free_.push_back(base + i);
}

void Simulator::push(const Key& key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  // Profiler bookkeeping (one relaxed load + branch while disabled):
  // pending-heap depth high-water.
  obs::PhaseProfiler::global().record_queue_depth(obs::QueueId::kSimQueue,
                                                  heap_.size());
}

void Simulator::pop_root() {
  // Bottom-up pop: walk the hole at the root down to a leaf along the
  // smallest children, then sift the displaced last key up from there.
  const std::size_t n = heap_.size() - 1;  // size after the pop
  const Key last = heap_[n];
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 4 <= n) {
      // Selects, not branches: which child is smallest is unpredictable.
      best = before(heap_[first + 1], heap_[best]) ? first + 1 : best;
      best = before(heap_[first + 2], heap_[best]) ? first + 2 : best;
      best = before(heap_[first + 3], heap_[best]) ? first + 3 : best;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(last, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
  heap_.pop_back();
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  pop_root();
  now_ = top.time;
  ++processed_;
  // The handler runs in its slot (chunks never move) and the slot is freed
  // only afterwards, so events it schedules never land on top of it. The
  // guard also frees the slot when the handler throws.
  struct Release {
    Simulator& sim;
    std::uint32_t slot;
    ~Release() {
      sim.slot_ref(slot).~Handler();
      sim.free_.push_back(slot);
    }
  } release{*this, top.slot};
  const obs::ScopedPhase phase(obs::Phase::kSimLoop);
  slot_ref(top.slot)();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  while (!heap_.empty() && heap_.front().time < t) {
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace paai::sim
