#include "sim/event_queue.h"

namespace hotstuff1::sim {

void EventArena::Grow() {
  const uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
  chunks_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
  free_.reserve(free_.size() + kChunkSize);
  // LIFO free list; seed high-to-low so fresh slots hand out in ascending
  // index order (denser chunks, friendlier first-touch).
  for (uint32_t i = kChunkSize; i > 0; --i) free_.push_back(base + i - 1);
}

}  // namespace hotstuff1::sim
