// Seeded workload library (`tca::workload`): the traffic the paper
// evaluates TCA on — ping-pong between neighbors, and the halo-exchange and
// allreduce patterns of stencil codes — set up, spawned and verified once.
// The chaos engine runs these under fault campaigns and `tca_explore
// --workload` from the CLI. The callers pick the buffer placement, the byte
// count and the communicator's configuration; nothing else differs. Layouts
// and the verifier's promise: docs/ARCHITECTURE.md ("workload").
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "api/tca.h"
#include "coll/communicator.h"
#include "common/error.h"

namespace tca::workload {

enum class Kind : std::uint8_t {
  kAllreduce,  ///< coll::Communicator::allreduce_sum on every rank
  kHalo,       ///< coll::Communicator::neighbor_exchange on every rank
  kPingPong,   ///< memcpy_peer_reliable to both ring neighbors
  kMixed,      ///< allreduce and pingpong concurrently
};

inline constexpr Kind kAllKinds[] = {Kind::kAllreduce, Kind::kHalo,
                                     Kind::kPingPong, Kind::kMixed};

const char* to_string(Kind kind);
/// Inverse of to_string; any other name is kInvalidArgument.
Result<Kind> parse(std::string_view name);
/// Allreduce, halo and mixed run collectives and need a Communicator.
bool needs_communicator(Kind kind);

/// Where every rank's buffers live.
enum class Placement : std::uint8_t { kHost, kGpu0 };

/// One spawned op. `done` turns true when the op returns `status`.
struct OpSlot {
  std::uint32_t rank = 0;
  Status status;
  bool done = false;
};

class Workload {
 public:
  /// Pingpong bytes per direction inside the mixed workload.
  static constexpr std::uint64_t kMixedPingpongBytes = 4096;

  /// Creates the communicator from `config` if needs_communicator(kind),
  /// then allocates every rank's buffers out of `rt` (part by part, rank by
  /// rank) and writes the seeded fill. `bytes` is the allreduce vector, or
  /// the halo row or pingpong message per direction. Every put runs under
  /// `config.sync`. Sizes that cannot run and failed allocations come back
  /// as a Status. `rt` must outlive the run.
  static Result<Workload> setup(api::Runtime& rt, Kind kind,
                                Placement placement, std::uint64_t bytes,
                                std::uint64_t seed,
                                const coll::CollConfig& config);

  /// Spawns every rank's ops, once, in slot order: allreduce ranks, then
  /// halo ranks or pingpong nodes (a forward and a reverse slot each).
  /// Slots and communicator stay put when the Workload moves; it must
  /// outlive the run.
  void spawn();

  /// Compares every received region whose ops returned OK (see spawn) with
  /// what its sender wrote. The first mismatch is kInternal, naming the workload,
  /// the rank and the byte offset in that rank's buffer.
  [[nodiscard]] Status verify() const;

  [[nodiscard]] const std::vector<OpSlot>& slots() const { return slots_; }
  /// Null for pingpong.
  [[nodiscard]] const coll::Communicator* communicator() const {
    return comm_.get();
  }
  /// Every buffer in allocation order: the allreduce vectors, then the halo
  /// or pingpong slabs, one per rank each.
  [[nodiscard]] const std::vector<api::Buffer>& buffers() const {
    return buffers_;
  }
  /// Bytes each rank sends, for bandwidth reports.
  [[nodiscard]] std::uint64_t payload_bytes() const {
    return count_ * sizeof(double) + 2 * slab_part_;
  }

 private:
  Workload() = default;

  api::Runtime* rt_ = nullptr;
  std::unique_ptr<coll::Communicator> comm_;
  api::SyncOptions sync_;
  Kind kind_ = Kind::kAllreduce;
  std::uint64_t seed_ = 0;
  std::vector<std::uint32_t> next_;  ///< ring successor of each rank
  std::vector<std::uint32_t> prev_;  ///< ring predecessor of each rank
  std::uint64_t count_ = 0;          ///< allreduce doubles per rank
  std::uint64_t slab_part_ = 0;      ///< halo/pingpong bytes per region
  std::vector<api::Buffer> buffers_;
  std::vector<OpSlot> slots_;
};

}  // namespace tca::workload
