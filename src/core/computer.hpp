// Computing actor (paper §V.D, Algorithm 3).
//
// Message-driven: each VertexMessage batch is folded into the update
// column of the value file. The first message a vertex receives in a
// superstep seeds the accumulator from the vertex's freshest stored
// payload (see the latest-column note in value_file.hpp /
// engine.hpp) via Program::first_update; subsequent messages fold into the
// in-progress accumulator. An update clears the stale flag so next
// superstep's dispatcher picks the vertex up; a first message that does
// *not* change the value still writes the copied payload with the flag
// set — the paper's "negative value" write — keeping the update column's
// payload fresh.
//
// Message-plane contract (DESIGN.md §11): under range routing this actor
// owns one contiguous vertex slice, so its value-file and latest-column
// writes never share a cache line with another computer, and batches
// arrive radix-staged in ascending-dst order — the apply loop walks the
// slice near-sequentially. Drained batch buffers are recycled into the
// engine's MessageBatchPool, closing the zero-allocation loop with the
// dispatchers' leases.
//
// Exact-sum programs (Program::exact_sum, PageRank) fold into a per-vertex
// fixed-point sum plane instead of the slot (core/exact_sum.hpp): each
// message costs one 8-byte read-modify-write, whatever order the
// dispatchers' batches arrive in, plus, on a vertex's first message of the
// superstep, the seed and the base copy that apply() does too. When
// COMPUTE_OVER arrives, one pass over the computer's own vertices writes
// each touched vertex's final sum into its slot and clears its entry,
// before the ack.
//
// COMPUTE_OVER (sent by the manager only after every dispatcher finished,
// hence after every batch of the superstep is already enqueued) is acked
// back with the number of vertices this actor updated.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "actor/actor.hpp"
#include "core/exact_sum.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class ManagerActor;

class ComputerActor final : public Actor<ComputerMsg> {
 public:
  /// `worklist` (nullptr in sweep mode) receives the activation bit for
  /// every vertex this actor updates: set in the update column's
  /// generation inside the same first-update branch that clears the
  /// slot's stale flag, so bit and flag can never disagree (the
  /// bit-identical-results invariant, DESIGN.md §12). `orig_ids` (non-null
  /// only for renumbered v2 files) translates the vertex id handed to
  /// Program::first_update back to the original id; storage indexing
  /// stays internal. `exact_sums` (non-null exactly when
  /// program.exact_sum()) is the job's n-entry sum plane, all zero; like
  /// latest_column, entry v is only ever written by the computer owning
  /// v (`id` is this computer's part in `owners`).
  ComputerActor(std::uint32_t id, ValueFile& values, const Program& program,
                std::vector<std::uint8_t>& latest_column,
                MessageBatchPool& pool, const OwnerMap& owners,
                ActiveBitmap* worklist = nullptr,
                const VertexId* orig_ids = nullptr,
                ExactSum* exact_sums = nullptr);

  void connect(ManagerActor* manager);

  std::uint64_t updates_total() const { return updates_total_; }

  /// First-message events (one value-slot write each, even for
  /// non-updates — the "negative value" copy).
  std::uint64_t touches_total() const { return touches_total_; }

  /// Wall time spent applying batches, plus the exact fold's pass at
  /// COMPUTE_OVER (the compute-side complement of
  /// DispatcherActor::busy_seconds for the message-plane bench).
  double busy_seconds() const { return busy_seconds_; }

 protected:
  void on_message(ComputerMsg msg) override;

 private:
  void report_failure(std::uint64_t superstep, const std::exception& error);
  void apply(const VertexMessage& message, unsigned update_col);
  void apply_exact(const VertexMessage& message, unsigned update_col);
  /// Writes and clears every vertex the exact fold touched this superstep.
  void finish_exact(unsigned update_col);

  const std::uint32_t id_;
  ValueFile& values_;
  const Program& program_;
  /// Which column holds vertex v's freshest payload. Shared array, but
  /// entry v is only ever written by the computer owning v.
  std::vector<std::uint8_t>& latest_column_;
  MessageBatchPool& pool_;
  const OwnerMap& owners_;
  /// Worklist mode's active bitmap; nullptr = sweep mode.
  ActiveBitmap* const worklist_;
  /// Renumbered files' internal -> original id map; nullptr = identity.
  const VertexId* const orig_ids_;
  /// Exact-sum plane; nullptr = fold with Program::compute.
  ExactSum* const exact_sums_;

  ManagerActor* manager_ = nullptr;
  std::uint64_t updates_this_superstep_ = 0;
  std::uint64_t updates_total_ = 0;
  std::uint64_t touches_total_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace gpsa
