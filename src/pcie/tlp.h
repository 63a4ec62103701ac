// Transaction-layer packets (TLPs).
//
// The simulator models PCIe at TLP granularity: Memory Write Request
// (posted), Memory Read Request (non-posted), Completion-with-Data, and a
// vendor-defined message used by PEARL for end-to-end delivery notification.
// TLPs carry *real payload bytes* so data integrity is checkable end-to-end.
// Those bytes live in pooled buffers (Payload, below) so that a TLP's trip
// through the model allocates nothing once the pool has warmed up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "calib/calibration.h"
#include "common/units.h"

namespace tca::pcie {

enum class TlpType : std::uint8_t {
  kMemWrite,    ///< MWr: posted write, routed by address
  kMemRead,     ///< MRd: non-posted read request, routed by address
  kCompletion,  ///< CplD: read completion with data, routed by requester id
  kVendorMsg,   ///< PEARL delivery notification, routed by address
};

const char* to_string(TlpType type);

/// Identifies a requester (bus/device function in real PCIe; a flat device
/// id here). Used to route completions back to the issuing device.
using DeviceId = std::uint16_t;

/// Observer a final-hop PEACH2 chip plants on a MemWrite so the memory
/// endpoint (host DRAM controller, GPU GDDR queue) can announce the instant
/// the payload actually commits. This times the PEARL delivery notification
/// off the real commit — including link serialization, root-complex and
/// device queueing, and the endpoint's own commit latency — so an ack can
/// never outrun its data through a congested path. Dropped or abandoned
/// TLPs never notify: the missing ack is what makes the source DMAC's
/// watchdog retry the chain.
class CommitNotifier {
 public:
  // tca-protocol: acks-on-commit
  virtual void on_write_commit(std::uint64_t ack_address,
                               std::uint8_t tag) = 0;

 protected:
  ~CommitNotifier() = default;
};

/// A TLP's payload bytes: a handle to a byte buffer recycled through a
/// thread-confined pool. Buffers come in power-of-two size classes from
/// kMaxPayloadBytes up; the pool grows on demand and never shrinks, so it
/// holds at most the peak number of payloads ever alive at once. Moving a
/// Payload hands its buffer over; copying makes a deep copy; destroying it
/// returns the buffer to the pool. Pooled memory is host memory only:
/// nothing simulated (time, traces, metrics) depends on it. Under
/// AddressSanitizer a buffer sitting in the pool is poisoned, so a use after
/// its Payload died is reported.
class Payload {
 public:
  Payload() noexcept = default;
  Payload(const Payload& other) { assign(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) assign(other);
    return *this;
  }
  Payload(Payload&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        size_class_(other.size_class_) {}
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      size_class_ = other.size_class_;
    }
    return *this;
  }
  ~Payload() { reset(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::byte* begin() { return data_; }
  [[nodiscard]] std::byte* end() { return data_ + size_; }
  [[nodiscard]] const std::byte* begin() const { return data_; }
  [[nodiscard]] const std::byte* end() const { return data_ + size_; }

  /// Replaces the contents with a copy of `bytes`.
  void assign(std::span<const std::byte> bytes);

  /// Sizes the payload to `n` bytes for the caller to fill; the bytes are
  /// unspecified until written. Keeps the buffer when it is large enough.
  void resize_for_overwrite(std::size_t n);

  /// Returns the buffer to the pool, leaving the payload empty.
  void reset() noexcept {
    if (data_ != nullptr) release();
  }

  friend bool operator==(const Payload& a, std::span<const std::byte> b);

 private:
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint8_t size_class_ = 0;  ///< capacity = kMaxPayloadBytes << class
};

struct Tlp {
  TlpType type = TlpType::kMemWrite;

  /// Target PCIe bus address (MWr/MRd/kVendorMsg). For completions this
  /// holds the original request address (useful for reassembly offsets).
  std::uint64_t address = 0;

  /// Requested byte count for MRd; payload size for MWr/CplD.
  std::uint32_t length = 0;

  DeviceId requester = 0;
  std::uint8_t tag = 0;

  /// Remaining byte count for multi-completion reads (PCIe's Byte Count
  /// field): the requester knows the read finished when this completion's
  /// payload covers the remainder.
  std::uint32_t byte_count_remaining = 0;

  /// PEARL delivery notification: when non-zero on a MemWrite, the chip
  /// that forwards this TLP out its North port (i.e. delivers it into the
  /// destination node) arranges for a kVendorMsg with the same `tag` to be
  /// sent to this global mailbox address once the write commits (see
  /// CommitNotifier). Used by the DMAC's remote-write completion window.
  std::uint64_t ack_address = 0;

  Payload payload;

  /// When non-null on a MemWrite, the committing endpoint calls
  /// `commit_notifier->on_write_commit(ack_address, tag)` at the simulated
  /// instant the payload lands in memory. Set by the final-hop chip, which
  /// leaves `ack_address` populated for the endpoint to echo back.
  CommitNotifier* commit_notifier = nullptr;

  /// Bytes this TLP occupies on the wire (payload + header/DLL/PHY framing),
  /// using the overhead terms of the paper's peak-bandwidth formula.
  [[nodiscard]] std::uint64_t wire_bytes() const;

  [[nodiscard]] bool carries_data() const {
    return type == TlpType::kMemWrite || type == TlpType::kCompletion;
  }

  /// Builders -------------------------------------------------------------

  // Every builder that sizes a payload asserts calib::kMaxPayloadBytes.
  static Tlp mem_write(std::uint64_t address, std::span<const std::byte> data,
                       DeviceId requester = 0);
  /// Takes over `data` without copying it (forwarding a read completion).
  static Tlp mem_write(std::uint64_t address, Payload data,
                       DeviceId requester = 0);
  static Tlp mem_read(std::uint64_t address, std::uint32_t length,
                      DeviceId requester, std::uint8_t tag);
  /// Completion for the `length` bytes of `request` that start
  /// `byte_count_remaining` bytes before its end. The payload is sized to
  /// `length` and unfilled: the responder reads memory straight into it.
  static Tlp completion(const Tlp& request, std::uint32_t length,
                        std::uint32_t byte_count_remaining);
  // tca-protocol: acks-on-commit
  static Tlp vendor_msg(std::uint64_t address, DeviceId requester,
                        std::uint8_t tag);
};

/// Splits a byte range into TLP-payload-sized chunks honoring
/// MaxPayloadSize. f(offset, chunk_len) is invoked in address order.
template <typename F>
void for_each_payload_chunk(std::uint64_t offset, std::uint64_t total,
                            std::uint32_t max_payload, F&& f) {
  std::uint64_t done = 0;
  while (done < total) {
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_payload, total - done));
    f(offset + done, chunk);
    done += chunk;
  }
}

}  // namespace tca::pcie
