// Growable ring-buffer FIFO that keeps its capacity.
//
// The TLP queues (link transmit and in-flight queues, router ingress and
// egress FIFOs, root-complex and GPU queues) push and pop one element per
// TLP. std::deque frees and reallocates a storage block every few dozen
// elements of that churn; this ring allocates only when it grows past its
// high-water mark and never shrinks, so a queue in steady state allocates
// nothing. Capacity is a power of two and doubles on demand.
//
// Besides FIFO order it supports push_front / pop_back (the data-link
// replay and surprise-down paths return TLPs to the head of the queue) and
// in-order const iteration, front to back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

#include "common/error.h"

namespace tca::sim {

template <typename T>
class RingFifo {
 public:
  RingFifo() = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;
  ~RingFifo() {
    clear();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  T& front() { return at(0); }
  const T& front() const { return at(0); }
  T& back() { return at(size_ - 1); }
  const T& back() const { return at(size_ - 1); }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    ::new (slot(size_)) T(std::move(value));
    ++size_;
  }

  void push_front(T value) {
    if (size_ == capacity_) grow();
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    ::new (slot(0)) T(std::move(value));
    ++size_;
  }

  void pop_front() {
    TCA_ASSERT(size_ > 0);
    slot(0)->~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void pop_back() {
    TCA_ASSERT(size_ > 0);
    slot(size_ - 1)->~T();
    --size_;
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_back();
    head_ = 0;
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return fifo_->at(index_); }
    pointer operator->() const { return &fifo_->at(index_); }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class RingFifo;
    const_iterator(const RingFifo* fifo, std::size_t index)
        : fifo_(fifo), index_(index) {}
    const RingFifo* fifo_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  /// Address of the i-th element counted from the front.
  T* slot(std::size_t i) const {
    return slots_ + ((head_ + i) & (capacity_ - 1));
  }
  T& at(std::size_t i) {
    TCA_ASSERT(i < size_);
    return *slot(i);
  }
  const T& at(std::size_t i) const {
    TCA_ASSERT(i < size_);
    return *slot(i);
  }

  /// Doubles the capacity, moving the elements to the front of the new
  /// storage in queue order.
  void grow() {
    const std::size_t capacity = std::max(kInitialCapacity, capacity_ * 2);
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* old = slot(i);
      ::new (slots + i) T(std::move(*old));
      old->~T();
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  ///< 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tca::sim
