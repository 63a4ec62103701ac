#include "workload/workload.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "sim/task.h"

namespace tca::workload {

namespace {

// Slab regions; a region starts at region * bytes-per-region.
// Halo: [recv_from_prev][send_to_prev][send_to_next][recv_from_next].
constexpr std::uint64_t kRecvFromPrev = 0, kSendToPrev = 1, kSendToNext = 2,
                        kRecvFromNext = 3;
// Pingpong: [send_fwd][send_rev][recv_fwd][recv_rev].
constexpr std::uint64_t kSendFwd = 0, kSendRev = 1, kRecvFwd = 2,
                        kRecvRev = 3;

/// Small-integer doubles in [0, 1024): cross-rank sums are exact in any
/// fold order.
double init_value(std::uint64_t seed, std::uint64_t rank, std::uint64_t j) {
  return static_cast<double>((j * 7 + rank * 13 + seed % 64) % 1024);
}

/// The allreduce vectors of ranks [lo, hi) summed: (r, r + 1) is rank r's
/// fill, (0, n) the result every rank must hold.
std::vector<std::byte> allreduce_bytes(std::uint64_t seed, std::uint32_t lo,
                                       std::uint32_t hi, std::uint64_t count) {
  std::vector<double> v(count, 0.0);
  for (std::uint32_t r = lo; r < hi; ++r) {
    for (std::uint64_t j = 0; j < count; ++j) v[j] += init_value(seed, r, j);
  }
  const auto bytes = std::as_bytes(std::span<const double>(v));
  return {bytes.begin(), bytes.end()};
}

/// What `sender` writes into slab region `region`.
std::vector<std::byte> pattern(std::uint64_t seed, std::uint64_t sender,
                               std::uint64_t region, std::uint64_t bytes) {
  std::vector<std::byte> out(bytes);
  for (std::uint64_t j = 0; j < bytes; ++j) {
    out[j] = static_cast<std::byte>(
        (seed * 31 + sender * 131 + region * 17 + j * 7) & 0xff);
  }
  return out;
}

sim::Task<> allreduce_rank(coll::Communicator* comm, api::Buffer buf,
                           std::uint64_t count, OpSlot* slot) {
  slot->status = co_await comm->allreduce_sum(slot->rank, buf, 0, count);
  slot->done = true;
}

sim::Task<> halo_rank(coll::Communicator* comm, coll::HaloSpec spec,
                      OpSlot* slot) {
  slot->status = co_await comm->neighbor_exchange(slot->rank, spec);
  slot->done = true;
}

/// One node's pingpong: the forward put, then the reverse put.
sim::Task<> pingpong_node(api::Runtime* rt, api::Buffer src,
                          api::Buffer fwd_dst, api::Buffer rev_dst,
                          std::uint64_t bytes, api::SyncOptions sync,
                          OpSlot* fwd, OpSlot* rev) {
  fwd->status = co_await rt->memcpy_peer_reliable(
      fwd_dst, kRecvFwd * bytes, src, kSendFwd * bytes, bytes, sync);
  fwd->done = true;
  rev->status = co_await rt->memcpy_peer_reliable(
      rev_dst, kRecvRev * bytes, src, kSendRev * bytes, bytes, sync);
  rev->done = true;
}

}  // namespace

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kAllreduce: return "allreduce";
    case Kind::kHalo: return "halo";
    case Kind::kPingPong: return "pingpong";
    case Kind::kMixed: return "mixed";
  }
  return "?";
}

Result<Kind> parse(std::string_view name) {
  for (const Kind kind : kAllKinds) {
    if (name == to_string(kind)) return kind;
  }
  return Status(ErrorCode::kInvalidArgument,
                "unknown workload \"" + std::string(name) +
                    "\" (want allreduce|halo|pingpong|mixed)");
}

bool needs_communicator(Kind kind) { return kind != Kind::kPingPong; }

Result<Workload> Workload::setup(api::Runtime& rt, Kind kind,
                                 Placement placement, std::uint64_t bytes,
                                 std::uint64_t seed,
                                 const coll::CollConfig& config) {
  const std::uint32_t n = rt.node_count();
  auto fail = [kind](ErrorCode code, const std::string& why) {
    return Status(code, std::string(to_string(kind)) + ": " + why);
  };
  if (bytes == 0) return fail(ErrorCode::kInvalidArgument, "zero bytes");

  Workload w;
  w.rt_ = &rt;
  w.sync_ = config.sync;
  w.kind_ = kind;
  w.seed_ = seed;
  if (needs_communicator(kind)) {
    auto comm = coll::Communicator::create(rt, config);
    if (!comm.is_ok()) return comm.status();
    w.comm_ = std::make_unique<coll::Communicator>(std::move(comm).value());
  }
  const std::vector<std::uint32_t> ring = rt.cluster().topology().ring_order();
  w.next_.resize(n);
  w.prev_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    w.next_[ring[p]] = ring[(p + 1) % n];
    w.prev_[ring[p]] = ring[(p + n - 1) % n];
  }
  if (kind == Kind::kAllreduce || kind == Kind::kMixed) {
    w.count_ = bytes / sizeof(double);
    w.count_ -= w.count_ % n;  // the ring partitions the vector evenly
    if (w.count_ == 0) {
      return fail(ErrorCode::kInvalidArgument,
                  "needs at least " + std::to_string(n * sizeof(double)) +
                      " bytes, one double per rank");
    }
  }
  if (kind != Kind::kAllreduce) {
    w.slab_part_ = kind == Kind::kMixed ? kMixedPingpongBytes : bytes;
    if (kind == Kind::kHalo && bytes > config.pipeline_seg_bytes) {
      return fail(ErrorCode::kInvalidArgument,
                  "row of " + std::to_string(bytes) +
                      " bytes must fit one staging slot (<= " +
                      std::to_string(config.pipeline_seg_bytes) + " bytes)");
    }
    if (w.slab_part_ > std::numeric_limits<std::uint64_t>::max() / 4) {
      return fail(ErrorCode::kInvalidArgument,
                  std::to_string(bytes) + " bytes overflow a 4-region slab");
    }
  }

  // The allreduce vectors, then the slabs. Each rank sends two adjacent
  // regions of its slab.
  const std::uint64_t b = w.slab_part_;
  const std::uint64_t first_send = kind == Kind::kHalo ? kSendToPrev : kSendFwd;
  for (const bool slab : {false, true}) {
    const std::uint64_t size = slab ? 4 * b : w.count_ * sizeof(double);
    for (std::uint32_t r = 0; size > 0 && r < n; ++r) {
      auto buf = placement == Placement::kHost ? rt.alloc_host(r, size)
                                               : rt.alloc_gpu(r, 0, size);
      if (!buf.is_ok()) {
        return fail(buf.status().code(), "alloc failed on node " +
                                             std::to_string(r) + ": " +
                                             buf.status().message());
      }
      w.buffers_.push_back(buf.value());
      if (!slab) {
        rt.write(buf.value(), 0, allreduce_bytes(seed, r, r + 1, w.count_));
      }
      for (std::uint64_t i = first_send; slab && i < first_send + 2; ++i) {
        rt.write(buf.value(), i * b, pattern(seed, r, i, b));
      }
    }
  }
  return w;
}

void Workload::spawn() {
  const auto n = static_cast<std::uint32_t>(next_.size());
  const bool halo = kind_ == Kind::kHalo;
  const bool pingpong = kind_ == Kind::kPingPong || kind_ == Kind::kMixed;
  slots_.resize((count_ > 0 ? n : 0) + (halo ? n : 0) + (pingpong ? 2 * n : 0));
  const std::size_t slabs = buffers_.size() - n;  // rank 0's slab
  const std::uint64_t b = slab_part_;
  OpSlot* slot = slots_.data();
  for (std::uint32_t r = 0; count_ > 0 && r < n; ++r, ++slot) {
    slot->rank = r;
    sim::spawn(allreduce_rank(comm_.get(), buffers_[r], count_, slot));
  }
  for (std::uint32_t r = 0; halo && r < n; ++r, ++slot) {
    slot->rank = r;
    sim::spawn(halo_rank(comm_.get(),
                         coll::HaloSpec{.buf = buffers_[slabs + r],
                                        .send_to_next_off = kSendToNext * b,
                                        .send_to_prev_off = kSendToPrev * b,
                                        .recv_from_prev_off = kRecvFromPrev * b,
                                        .recv_from_next_off = kRecvFromNext * b,
                                        .bytes = b},
                         slot));
  }
  for (std::uint32_t r = 0; pingpong && r < n; ++r, slot += 2) {
    slot[0].rank = slot[1].rank = r;
    sim::spawn(pingpong_node(rt_, buffers_[slabs + r],
                             buffers_[slabs + next_[r]],
                             buffers_[slabs + prev_[r]], b, sync_, slot,
                             slot + 1));
  }
}

Status Workload::verify() const {
  const auto n = static_cast<std::uint32_t>(next_.size());
  Status first;  // the first mismatch; later checks are skipped
  auto check = [&](const char* what, std::uint32_t rank, std::size_t buffer,
                   std::uint64_t off, const std::vector<std::byte>& want) {
    if (!first.is_ok()) return;
    std::vector<std::byte> got(want.size());
    rt_->read(buffers_[buffer], off, got);
    const auto bad =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first;
    if (bad == got.end()) return;
    const auto j = static_cast<std::uint64_t>(bad - got.begin());
    first = Status(ErrorCode::kInternal,
                   std::string(what) + " rank " + std::to_string(rank) +
                       " byte " + std::to_string(off + j) +
                       " differs from what its sender wrote");
  };
  // Unspawned slots count as not OK.
  auto ok = [this](std::size_t slot) {
    return slot < slots_.size() && slots_[slot].done &&
           slots_[slot].status.is_ok();
  };

  bool all_ok = count_ > 0;
  for (std::uint32_t r = 0; r < n; ++r) all_ok = all_ok && ok(r);
  if (all_ok) {
    const std::vector<std::byte> want = allreduce_bytes(seed_, 0, n, count_);
    for (std::uint32_t r = 0; r < n; ++r) check("allreduce", r, r, 0, want);
  }
  const std::size_t base = count_ > 0 ? n : 0;  // first halo/pingpong slot
  const bool halo = kind_ == Kind::kHalo;
  const std::uint64_t b = slab_part_;
  const std::size_t slabs = buffers_.size() - n;
  for (std::uint32_t r = 0; b > 0 && r < n; ++r) {
    const std::uint32_t prev = prev_[r];
    const std::uint32_t next = next_[r];
    if (halo && ok(r) && ok(prev) && ok(next)) {
      check("halo", r, slabs + r, kRecvFromPrev * b,
            pattern(seed_, prev, kSendToNext, b));
      check("halo", r, slabs + r, kRecvFromNext * b,
            pattern(seed_, next, kSendToPrev, b));
    }
    // recv_fwd holds the predecessor's forward put, recv_rev the
    // successor's reverse put.
    if (!halo && ok(base + 2 * prev)) {
      check("pingpong", r, slabs + r, kRecvFwd * b,
            pattern(seed_, prev, kSendFwd, b));
    }
    if (!halo && ok(base + 2 * next + 1)) {
      check("pingpong", r, slabs + r, kRecvRev * b,
            pattern(seed_, next, kSendRev, b));
    }
  }
  return first;
}

}  // namespace tca::workload
