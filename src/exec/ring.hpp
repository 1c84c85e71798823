// Ring: a grow-by-doubling FIFO that recycles its slots.
//
// The hot-path queues of the execution substrate and the client gates —
// strand task queues, the executor's global injector, the gates' waiter
// tickets — push and pop once per lock operation. std::deque frees and
// reallocates a block every few dozen push/pop cycles even at constant
// depth; this ring allocates only when it outgrows its high-water mark,
// so steady state never touches the heap.
//
// Not thread-safe: every owner guards its ring with its own mutex.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.hpp"

namespace dmx::exec {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(T value) {
    if (size_ == capacity_) grow();
    slot(size_) = std::move(value);
    ++size_;
  }

  const T& front() const {
    DMX_CHECK(size_ > 0);
    return slots_[head_];
  }

  T pop() {
    DMX_CHECK(size_ > 0);
    T value = std::move(slots_[head_]);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return value;
  }

  /// Removes the first element equal to `value`, keeping the order of the
  /// rest; returns whether one was found.
  bool erase(const T& value) {
    std::size_t i = 0;
    while (i < size_ && !(slot(i) == value)) ++i;
    if (i == size_) return false;
    for (; i + 1 < size_; ++i) slot(i) = std::move(slot(i + 1));
    slot(i) = T{};
    --size_;
    return true;
  }

 private:
  T& slot(std::size_t i) { return slots_[(head_ + i) & (capacity_ - 1)]; }

  void grow() {
    const std::size_t fresh_capacity = capacity_ == 0 ? 8 : capacity_ * 2;
    auto fresh = std::make_unique<T[]>(fresh_capacity);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = std::move(slot(i));
    slots_ = std::move(fresh);
    capacity_ = fresh_capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dmx::exec
