#include "pcie/tlp.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <new>

// The poisoning macros expand to nothing without AddressSanitizer.
#include <sanitizer/asan_interface.h>

#include "common/error.h"

namespace tca::pcie {

namespace {

// Payload pool: one intrusive free list per size class. Every buffer is
// allocated with a link word in front of the bytes a Payload sees; while
// the buffer is free, the link holds the next free buffer's address. The
// list heads are plain pointers, so the pool needs no destructor and
// outlives every static Tlp: a Payload destroyed during process exit still
// has a list to join. Under AddressSanitizer a free buffer's bytes are
// poisoned; its link word is not, so the leak checker still follows the
// list.
constexpr std::size_t kSmallestBuffer = calib::kMaxPayloadBytes;
constexpr int kSizeClasses = 25;  // kSmallestBuffer << 24 covers 4 GiB
constexpr std::size_t kLinkBytes = alignof(std::max_align_t);
thread_local constinit std::array<std::byte*, kSizeClasses> free_buffers{};

constexpr std::size_t capacity_of(std::uint8_t size_class) {
  return kSmallestBuffer << size_class;
}

std::uint8_t size_class_for(std::size_t n) {
  if (n <= kSmallestBuffer) return 0;
  return static_cast<std::uint8_t>(std::bit_width((n - 1) / kSmallestBuffer));
}

/// Returns the payload bytes of a buffer of `size_class`.
std::byte* take_buffer(std::uint8_t size_class) {
  std::byte*& head = free_buffers[size_class];
  if (head == nullptr) {
    auto* link = static_cast<std::byte*>(
        ::operator new(kLinkBytes + capacity_of(size_class)));
    return link + kLinkBytes;
  }
  std::byte* link = head;
  std::memcpy(&head, link, sizeof(head));
  ASAN_UNPOISON_MEMORY_REGION(link + kLinkBytes, capacity_of(size_class));
  return link + kLinkBytes;
}

void give_back(std::byte* bytes, std::uint8_t size_class) {
  std::byte*& head = free_buffers[size_class];
  std::byte* link = bytes - kLinkBytes;
  std::memcpy(link, &head, sizeof(head));
  head = link;
  ASAN_POISON_MEMORY_REGION(bytes, capacity_of(size_class));
}

}  // namespace

void Payload::assign(std::span<const std::byte> bytes) {
  resize_for_overwrite(bytes.size());
  if (!bytes.empty()) std::memmove(data_, bytes.data(), bytes.size());
}

void Payload::resize_for_overwrite(std::size_t n) {
  TCA_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
  if (n == 0) {
    reset();
    return;
  }
  if (data_ == nullptr || n > capacity_of(size_class_)) {
    reset();
    size_class_ = size_class_for(n);
    data_ = take_buffer(size_class_);
  }
  size_ = static_cast<std::uint32_t>(n);
}

void Payload::release() noexcept {
  give_back(data_, size_class_);
  data_ = nullptr;
  size_ = 0;
}

bool operator==(const Payload& a, std::span<const std::byte> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

const char* to_string(TlpType type) {
  switch (type) {
    case TlpType::kMemWrite: return "MWr";
    case TlpType::kMemRead: return "MRd";
    case TlpType::kCompletion: return "CplD";
    case TlpType::kVendorMsg: return "Msg";
  }
  return "?";
}

std::uint64_t Tlp::wire_bytes() const {
  switch (type) {
    case TlpType::kMemWrite:
      return calib::kTlpWithDataOverheadBytes + payload.size();
    case TlpType::kMemRead:
      return calib::kTlpReadRequestBytes;
    case TlpType::kCompletion:
      return calib::kTlpCompletionOverheadBytes + payload.size();
    case TlpType::kVendorMsg:
      return calib::kTlpReadRequestBytes;  // header-only message
  }
  return calib::kTlpWithDataOverheadBytes;
}

Tlp Tlp::mem_write(std::uint64_t address, std::span<const std::byte> data,
                   DeviceId requester) {
  TCA_ASSERT(data.size() <= calib::kMaxPayloadBytes);
  Tlp tlp;
  tlp.type = TlpType::kMemWrite;
  tlp.address = address;
  tlp.length = static_cast<std::uint32_t>(data.size());
  tlp.requester = requester;
  tlp.payload.assign(data);
  return tlp;
}

Tlp Tlp::mem_write(std::uint64_t address, Payload data, DeviceId requester) {
  TCA_ASSERT(data.size() <= calib::kMaxPayloadBytes);
  Tlp tlp;
  tlp.type = TlpType::kMemWrite;
  tlp.address = address;
  tlp.length = static_cast<std::uint32_t>(data.size());
  tlp.requester = requester;
  tlp.payload = std::move(data);
  return tlp;
}

Tlp Tlp::mem_read(std::uint64_t address, std::uint32_t length,
                  DeviceId requester, std::uint8_t tag) {
  TCA_ASSERT(length > 0 && length <= calib::kMaxReadRequestBytes);
  Tlp tlp;
  tlp.type = TlpType::kMemRead;
  tlp.address = address;
  tlp.length = length;
  tlp.requester = requester;
  tlp.tag = tag;
  tlp.byte_count_remaining = length;
  return tlp;
}

Tlp Tlp::completion(const Tlp& request, std::uint32_t length,
                    std::uint32_t byte_count_remaining) {
  TCA_ASSERT(request.type == TlpType::kMemRead);
  TCA_ASSERT(length > 0 && length <= calib::kMaxPayloadBytes);
  TCA_ASSERT(length <= byte_count_remaining &&
             byte_count_remaining <= request.length);
  Tlp tlp;
  tlp.type = TlpType::kCompletion;
  tlp.address = request.address + (request.length - byte_count_remaining);
  tlp.length = length;
  tlp.requester = request.requester;
  tlp.tag = request.tag;
  tlp.byte_count_remaining = byte_count_remaining;
  tlp.payload.resize_for_overwrite(length);
  return tlp;
}

Tlp Tlp::vendor_msg(std::uint64_t address, DeviceId requester,
                    std::uint8_t tag) {
  Tlp tlp;
  tlp.type = TlpType::kVendorMsg;
  tlp.address = address;
  tlp.requester = requester;
  tlp.tag = tag;
  return tlp;
}

}  // namespace tca::pcie
