// Byte-addressable memory with real storage.
//
// The simulator is functional: DMA and PIO move actual bytes, so tests and
// examples can verify data integrity end-to-end. Timing (commit/read
// latency) is applied by the component that owns the memory, not here.
//
// Storage is one private anonymous mapping, zero-filled by the kernel on
// first touch: reads of untouched pages share the kernel's zero page, so
// resident memory tracks the pages a run actually writes, not the modeled
// capacity. The range stays contiguous, so view() hands out plain
// spans. AddressSanitizer puts no redzones around mmap'd memory; the range
// checks below are the only guard.
//
// One optional WriteObserver sees every write() after its bytes land; the
// node's CpuAgent uses it to wake host-memory waits event-driven instead of
// simulating the spin loop, so write() is the only way to mutate storage.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>

#include "common/error.h"

namespace tca::mem {

/// Notified after every Dram::write(); see the file comment.
class WriteObserver {
 public:
  virtual void on_write(std::uint64_t offset, std::uint64_t len) = 0;

 protected:
  ~WriteObserver() = default;
};

class Dram {
 public:
  explicit Dram(std::uint64_t size_bytes) : data_(map(size_bytes)) {}

  [[nodiscard]] std::uint64_t size() const { return data_.get_deleter().bytes; }

  void write(std::uint64_t offset, std::span<const std::byte> src) {
    TCA_ASSERT(in_range(offset, src.size()));
    std::copy(src.begin(), src.end(), data_.get() + offset);
    if (observer_ != nullptr) observer_->on_write(offset, src.size());
  }

  /// Installs (or, with nullptr, removes) the single write observer.
  void set_write_observer(WriteObserver* observer) { observer_ = observer; }

  void read(std::uint64_t offset, std::span<std::byte> dst) const {
    TCA_ASSERT(in_range(offset, dst.size()));
    std::copy_n(data_.get() + offset, dst.size(), dst.begin());
  }

  [[nodiscard]] std::span<const std::byte> view(std::uint64_t offset,
                                                std::uint64_t len) const {
    TCA_ASSERT(in_range(offset, len));
    return {data_.get() + offset, len};
  }

 private:
  struct Unmap {
    std::uint64_t bytes = 0;
    void operator()(std::byte* p) const noexcept { ::munmap(p, bytes); }
  };
  using Storage = std::unique_ptr<std::byte, Unmap>;

  // Written so that offset + len cannot wrap.
  [[nodiscard]] bool in_range(std::uint64_t offset, std::uint64_t len) const {
    return offset <= size() && len <= size() - offset;
  }

  static Storage map(std::uint64_t bytes) {
    if (bytes == 0) return Storage(nullptr, Unmap{});  // mmap rejects 0
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return Storage(static_cast<std::byte*>(p), Unmap{bytes});
  }

  Storage data_;
  WriteObserver* observer_ = nullptr;
};

}  // namespace tca::mem
