#include "core/computer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/manager.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

ComputerActor::ComputerActor(std::uint32_t id, ValueFile& values,
                             const Program& program,
                             std::vector<std::uint8_t>& latest_column,
                             MessageBatchPool& pool, const OwnerMap& owners,
                             ActiveBitmap* worklist,
                             const VertexId* orig_ids, ExactSum* exact_sums)
    : id_(id),
      values_(values),
      program_(program),
      latest_column_(latest_column),
      pool_(pool),
      owners_(owners),
      worklist_(worklist),
      orig_ids_(orig_ids),
      exact_sums_(exact_sums) {
  GPSA_CHECK((exact_sums_ != nullptr) == program_.exact_sum());
}

void ComputerActor::connect(ManagerActor* manager) {
  GPSA_CHECK(manager != nullptr);
  manager_ = manager;
}

void ComputerActor::on_message(ComputerMsg msg) {
  switch (msg.kind) {
    case ComputerMsg::Kind::kBatch:
      try {
        const ScopedAccumulator busy(busy_seconds_);
        const unsigned update_col = ValueFile::update_column(msg.superstep);
        if (exact_sums_ != nullptr) {
          for (const VertexMessage& m : msg.batch) {
            apply_exact(m, update_col);
          }
        } else {
          for (const VertexMessage& m : msg.batch) {
            apply(m, update_col);
          }
        }
        // Drained: the leased buffer re-enters circulation for the next
        // dispatcher flush (the zero-allocation loop).
        pool_.recycle(std::move(msg.batch));
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
      }
      break;
    case ComputerMsg::Kind::kComputeOver: {
      if (exact_sums_ != nullptr) {
        try {
          const ScopedAccumulator busy(busy_seconds_);
          finish_exact(ValueFile::update_column(msg.superstep));
        } catch (const std::exception& e) {
          report_failure(msg.superstep, e);
          break;
        }
      }
      ManagerMsg ack;
      ack.kind = ManagerMsg::Kind::kComputeOver;
      ack.superstep = msg.superstep;
      ack.worker_id = id_;
      ack.count = updates_this_superstep_;
      updates_total_ += updates_this_superstep_;
      updates_this_superstep_ = 0;
      manager_->send(ack);
      break;
    }
    case ComputerMsg::Kind::kSystemOver:
      break;
  }
}

void ComputerActor::report_failure(std::uint64_t superstep,
                                   const std::exception& error) {
  // A user compute/first_update/changed hook threw, or an exact sum left
  // its range: report instead of wedging the superstep barrier (§V.C
  // exception handling).
  ManagerMsg failed;
  failed.kind = ManagerMsg::Kind::kWorkerFailed;
  failed.superstep = superstep;
  failed.worker_id = id_;
  failed.error = std::string("computer: ") + error.what();
  manager_->send(std::move(failed));
}

void ComputerActor::apply(const VertexMessage& message,
                          unsigned update_col) {
  const VertexId v = message.dst;
  const Slot current = values_.load(v, update_col);

  if (slot_is_stale(current)) {
    // First message of this superstep for v (the update column was
    // invalidated when it was last dispatched): seed the accumulator from
    // the freshest stored payload (Algorithm 3 line 9).
    const Payload base =
        slot_payload(values_.load(v, latest_column_[v]));
    // first_update sees the original id (identity unless renumbered).
    const Payload seed = program_.first_update(
        orig_ids_ == nullptr ? v : orig_ids_[v], base);
    const Payload acc = program_.compute(seed, message.value);
    const bool updated = program_.changed(base, acc);
    // Even a non-update writes the copied payload ("a negative value will
    // be written"), so this column now holds v's freshest value.
    values_.store(v, update_col, make_slot(updated ? acc : base, !updated));
    latest_column_[v] = static_cast<std::uint8_t>(update_col);
    ++touches_total_;
    if (updated) {
      ++updates_this_superstep_;
      // Activation publishes to the bitmap in lock-step with the stale
      // flag: this branch is the only store of a non-stale slot into a
      // freshly-invalidated column, so "bit set in generation g" <=>
      // "column g's flag clear" — worklist dispatch reads exactly the
      // sweep's active set.
      if (worklist_ != nullptr) {
        worklist_->set(v, update_col);
      }
    }
    return;
  }

  // Fold into the in-progress accumulator.
  const Payload seed = slot_payload(current);
  const Payload acc = program_.compute(seed, message.value);
  if (acc != seed) {
    values_.store(v, update_col, make_slot(acc, /*stale=*/false));
  }
}

void ComputerActor::apply_exact(const VertexMessage& message,
                                unsigned update_col) {
  const VertexId v = message.dst;
  ExactSum& sum = exact_sums_[v];
  if (sum == 0) {
    // First message of this superstep for v: seed the sum as apply()
    // seeds its accumulator, and copy the base into the update column
    // now, while dispatchers still run, so the pass at COMPUTE_OVER finds
    // the slot's cache line local.
    const Payload base = slot_payload(values_.load(v, latest_column_[v]));
    values_.store(v, update_col, make_slot(base, /*stale=*/true));
    latest_column_[v] = static_cast<std::uint8_t>(update_col);
    const Payload seed = program_.first_update(
        orig_ids_ == nullptr ? v : orig_ids_[v], base);
    if (!exact_sum_add(sum, seed)) {
      throw std::range_error("exact sum: value reached 8 or is not finite");
    }
  }
  if (!exact_sum_add(sum, message.value)) {
    throw std::range_error("exact sum: value reached 8 or is not finite");
  }
}

void ComputerActor::finish_exact(unsigned update_col) {
  // One sequential pass over this computer's vertices, on the superstep's
  // critical path (after the last batch), so it does little per vertex:
  // the first message already seeded the sum and copied the base into
  // the update column, and activation bits gather per bitmap word (one
  // atomic OR per word, not per vertex).
  std::size_t word = 0;
  BitmapWord bits = 0;
  const VertexId owned = owners_.local_size(id_);
  for (VertexId block = 0; block < owned; block += 64) {
    // Which of the next 64 vertices received messages, then only those:
    // untouched vertices cost no branch each.
    const VertexId block_end = std::min<VertexId>(owned, block + 64);
    std::uint64_t touched = 0;
    for (VertexId i = block; i < block_end; ++i) {
      touched |= static_cast<std::uint64_t>(
                     exact_sums_[owners_.vertex_at(i, id_)] != 0)
                 << (i - block);
    }
    while (touched != 0) {
      const auto i = block + static_cast<VertexId>(std::countr_zero(touched));
      touched &= touched - 1;
      const VertexId v = owners_.vertex_at(i, id_);
      ExactSum& sum = exact_sums_[v];
      const Payload acc = exact_sum_to_payload(sum);
      sum = 0;
      ++touches_total_;
      // The first message left the base in the update column, stale: a
      // non-update keeps that copy as it is.
      if (!program_.changed(slot_payload(values_.load(v, update_col)), acc)) {
        continue;
      }
      values_.store(v, update_col, make_slot(acc, /*stale=*/false));
      ++updates_this_superstep_;
      if (worklist_ != nullptr) {
        if (ActiveBitmap::word_index(v) != word) {
          if (bits != 0) {
            worklist_->set_bits(update_col, word, bits);
          }
          word = ActiveBitmap::word_index(v);
          bits = 0;
        }
        bits |= BitmapWord{1} << ActiveBitmap::bit_index(v);
      }
    }
  }
  if (bits != 0) {
    worklist_->set_bits(update_col, word, bits);
  }
}

}  // namespace gpsa
