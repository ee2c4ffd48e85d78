#include "core/dispatcher.hpp"

#include <algorithm>
#include <bit>

#include "core/computer.hpp"
#include "core/manager.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

DispatcherActor::DispatcherActor(std::uint32_t id, Interval interval,
                                 const CsrFileReader& csr,
                                 CsrEntryStream& stream,
                                 ReadaheadScheduler& readahead,
                                 ValueFile& values, const Program& program,
                                 const OwnerMap& owners,
                                 MessageBatchPool& pool,
                                 std::size_t batch_size, Behavior behavior,
                                 ActiveBitmap* worklist,
                                 std::vector<Payload>* last_sent,
                                 const VertexId* orig_ids)
    : id_(id),
      interval_(interval),
      csr_(csr),
      stream_(stream),
      readahead_(readahead),
      values_(values),
      program_(program),
      owners_(owners),
      pool_(pool),
      batch_size_(batch_size),
      behavior_(behavior),
      worklist_(worklist),
      last_sent_(last_sent),
      orig_ids_(orig_ids) {
  GPSA_CHECK(batch_size_ > 0);
  // dispatch_inactive forces vertices the bitmap never lists; the engine
  // rejects the combination up front (engine.cpp), this guards spawns that
  // bypass it.
  GPSA_CHECK(worklist_ == nullptr || !behavior_.dispatch_inactive);
  has_degree_ = csr_.has_degree();
}

void DispatcherActor::connect(std::vector<ComputerActor*> computers,
                              ManagerActor* manager) {
  GPSA_CHECK(!computers.empty() && manager != nullptr);
  GPSA_CHECK(computers.size() == owners_.parts());
  computers_ = std::move(computers);
  manager_ = manager;
  range_staging_ = owners_.routing() == MessageRouting::kRange;
  // One-time setup: the outer per-owner vectors of empty staging slots.
  // Under mod routing the element buffers come from the pool; under range
  // routing the bin vectors grow to their working set during warm-up and
  // keep that capacity for the rest of the run.
  staging_.resize(computers_.size());  // gpsa-lint: allow(msg-buffer-alloc)
  if (range_staging_) {
    bins_.resize(  // gpsa-lint: allow(msg-buffer-alloc)
        computers_.size() * kRadixBins);
    staged_count_.assign(computers_.size(), 0);
  } else {
    for (auto& buffer : staging_) {
      buffer = pool_.lease();  // gpsa-analyze: transfer(staging slot; moved into the mailbox by flush_batch, recycled by the computer)
    }
  }
  radix_shift_.assign(computers_.size(), 0);
  for (std::size_t owner = 0; owner < computers_.size(); ++owner) {
    const VertexId local =
        owners_.local_size(static_cast<unsigned>(owner));
    unsigned shift = 0;
    while (local > 0 &&
           (static_cast<std::uint64_t>(local - 1) >> shift) >= kRadixBins) {
      ++shift;
    }
    radix_shift_[owner] = shift;
  }
  uniform_message_ = program_.uniform_gen_msg();
  combining_ = behavior_.combine && program_.has_combiner();
  if (combining_) {
    combine_slots_.resize(computers_.size());
    combine_gen_.assign(computers_.size(), 1);
    for (std::size_t owner = 0; owner < computers_.size(); ++owner) {
      combine_slots_[owner].assign(
          owners_.local_size(static_cast<unsigned>(owner)), 0);
    }
  }
}

void DispatcherActor::on_message(DispatcherMsg msg) {
  switch (msg.kind) {
    case DispatcherMsg::Kind::kIterationStart:
      try {
        run_iteration(msg.superstep);
      } catch (const std::exception& e) {
        // A user gen_msg hook threw: report instead of wedging the
        // superstep barrier (§V.C exception handling).
        for (std::size_t owner = 0; owner < computers_.size(); ++owner) {
          staging_[owner].clear();
          if (range_staging_) {
            for (std::size_t b = 0; b < kRadixBins; ++b) {
              bins_[owner * kRadixBins + b].clear();
            }
            staged_count_[owner] = 0;
          }
          if (combining_) {
            ++combine_gen_[owner];
          }
        }
        ManagerMsg failed;
        failed.kind = ManagerMsg::Kind::kWorkerFailed;
        failed.superstep = msg.superstep;
        failed.worker_id = id_;
        failed.error = std::string("dispatcher: ") + e.what();
        manager_->send(std::move(failed));
      }
      break;
    case DispatcherMsg::Kind::kSystemOver:
      break;  // nothing to tear down; the engine owns all resources
  }
}

void DispatcherActor::run_iteration(std::uint64_t superstep) {
  {
    // The busy clock stops before DISPATCH_OVER goes out: once the manager
    // has every ack it may finish the run, and run_job then reads
    // busy_seconds() from another thread.
    const ScopedAccumulator busy(busy_seconds_);
    messages_this_superstep_ = 0;
    dispatched_this_superstep_ = 0;
    entries_this_superstep_ = 0;
    checks_this_superstep_ = 0;
    const unsigned dispatch_col = ValueFile::dispatch_column(superstep);

    readahead_.begin_superstep();

    if (worklist_ != nullptr) {
      run_worklist(superstep, dispatch_col);
    } else {
      run_sweep(superstep, dispatch_col);
    }
    flush_all(superstep);
    messages_sent_total_ += messages_this_superstep_;
    vertex_checks_total_ += checks_this_superstep_;
    entries_read_total_ += entries_this_superstep_;
  }
  ManagerMsg done;
  done.kind = ManagerMsg::Kind::kDispatchOver;
  done.superstep = superstep;
  done.worker_id = id_;
  done.count = messages_this_superstep_;
  done.active = dispatched_this_superstep_;
  done.edges = entries_this_superstep_ + checks_this_superstep_;
  manager_->send(done);
}

void DispatcherActor::run_sweep(std::uint64_t superstep,
                                unsigned dispatch_col) {
  const auto offsets = csr_.record_offsets();
  // Algorithm 2: stream the interval's records in id order, driven by the
  // entry cursor (`curoff`), skipping stale vertices. Record bytes come
  // through the I/O backend's stream; the reader only supplies offsets.
  std::uint64_t cursor = interval_.begin_entry;
  checks_this_superstep_ += interval_.vertex_count();
  for (VertexId v = interval_.begin_vertex; v < interval_.end_vertex; ++v) {
    GPSA_DCHECK(cursor == offsets[v]);
    readahead_.advance(cursor, v);
    const Slot slot = values_.load(v, dispatch_col);
    if (!behavior_.dispatch_inactive && slot_is_stale(slot)) {
      cursor = offsets[v + 1];  // skip(sequence)
      continue;
    }
    dispatch_vertex(v, slot_payload(slot), cursor, offsets[v + 1], superstep);
    cursor = offsets[v + 1];
    // Consume: "after a dispatcher finishes processing, it will invalidate
    // the value of the current vertex by setting its highest bit to 1".
    values_.consume(v, dispatch_col);
  }
}

void DispatcherActor::run_worklist(std::uint64_t superstep,
                                   unsigned dispatch_col) {
  if (interval_.begin_vertex >= interval_.end_vertex) {
    return;
  }
  const auto offsets = csr_.record_offsets();
  // Word-scan the interval's slice of the dispatch generation: countr_zero
  // walks each word's set bits in ascending vertex order (matching the
  // sweep's dispatch order), popcount sizes the batch for the counters.
  const std::size_t first = ActiveBitmap::word_index(interval_.begin_vertex);
  const std::size_t last = ActiveBitmap::word_index(interval_.end_vertex - 1);
  for (std::size_t w = first; w <= last; ++w) {
    BitmapWord bits =
        worklist_->word(dispatch_col, w) &
        ActiveBitmap::range_mask(w, interval_.begin_vertex,
                                 interval_.end_vertex);
    checks_this_superstep_ += static_cast<std::uint64_t>(std::popcount(bits));
    while (bits != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      const auto v =
          static_cast<VertexId>(w * kBitmapWordBits + bit);
      const std::uint64_t cursor = offsets[v];
      readahead_.advance(cursor, v);
      const Slot slot = values_.load(v, dispatch_col);
      // Bitmap/stale-flag equivalence (DESIGN.md §12): a set bit means the
      // owning computer stored this column non-stale last superstep.
      GPSA_DCHECK(!slot_is_stale(slot));
      dispatch_vertex(v, slot_payload(slot), cursor, offsets[v + 1],
                      superstep);
      values_.consume(v, dispatch_col);
    }
  }
  // Retire the consumed generation before the next superstep's computers
  // re-publish into it (the manager barrier orders the two); boundary
  // words are mask-cleared, so the neighbouring dispatcher keeps its bits.
  worklist_->clear_range(dispatch_col, interval_.begin_vertex,
                         interval_.end_vertex);
}

void DispatcherActor::dispatch_vertex(VertexId v, Payload value,
                                      std::uint64_t begin_entry,
                                      std::uint64_t end_entry,
                                      std::uint64_t superstep) {
  const std::uint64_t record_entries = end_entry - begin_entry;
  entries_this_superstep_ += record_entries;
  ++dispatched_this_superstep_;
  const std::int32_t* record =
      stream_.fetch_record(begin_entry, record_entries);
  if (last_sent_ != nullptr) {
    // Delta programming: the message carries the change since this
    // vertex's previous dispatch, and the plane records what was sent.
    const Payload current = value;
    value = program_.delta(current, (*last_sent_)[v]);
    (*last_sent_)[v] = current;
  }
  std::uint64_t i = 0;
  std::uint32_t degree;
  if (has_degree_) {
    degree = static_cast<std::uint32_t>(record[i++]);
  } else {
    degree = static_cast<std::uint32_t>(record_entries - 1);
  }
  // Program hooks see *original* vertex ids (identity unless the file is
  // renumbered); everything downstream of gen_msg stays in internal ids.
  const VertexId src_ext = orig_ids_ == nullptr ? v : orig_ids_[v];
  // Uniform-message programs (PageRank, BFS, CC) pay gen_msg's virtual
  // call and arithmetic once per vertex, not once per out-edge; the
  // first destination is passed only for interface symmetry.
  Payload uniform_value = 0;
  if (uniform_message_ && record[i] != kCsrEndOfList) {
    const auto dst0 = static_cast<VertexId>(record[i]);
    uniform_value = program_.gen_msg(
        src_ext, orig_ids_ == nullptr ? dst0 : orig_ids_[dst0], value,
        degree);
  }
  while (record[i] != kCsrEndOfList) {
    const VertexId dst = static_cast<VertexId>(record[i]);
    ++i;
    const Payload message =
        uniform_message_
            ? uniform_value
            : program_.gen_msg(src_ext,
                               orig_ids_ == nullptr ? dst : orig_ids_[dst],
                               value, degree);
    const std::size_t owner = owners_.owner_of(dst);
    if (combining_) {
      const VertexId local =
          owners_.local_index(dst, static_cast<unsigned>(owner));
      std::uint64_t& entry = combine_slots_[owner][local];
      // The entry's low half is the pending message's staging position
      // + 1: its index in the owner's destination bin under range
      // staging, in the flat staging buffer under mod.
      std::vector<VertexMessage>& stage =
          range_staging_
              ? bins_[owner * kRadixBins + (local >> radix_shift_[owner])]
              : staging_[owner];
      if ((entry >> 32) == combine_gen_[owner]) {
        VertexMessage& pending =
            stage[static_cast<std::uint32_t>(entry) - 1];
        pending.value = program_.combine(pending.value, message);
      } else {
        entry = (combine_gen_[owner] << 32) |
                static_cast<std::uint32_t>(stage.size() + 1);
        stage.push_back(VertexMessage{dst, message});
        if (range_staging_) {
          ++staged_count_[owner];
        }
        ++messages_this_superstep_;
      }
    } else if (range_staging_) {
      // Bin-bucketed staging: land the message directly in its radix
      // bin while dst is in registers; the flush then only needs
      // sequential copies to emit an ascending-dst batch.
      const VertexId local =
          owners_.local_index(dst, static_cast<unsigned>(owner));
      bins_[owner * kRadixBins + (local >> radix_shift_[owner])]
          .push_back(VertexMessage{dst, message});
      ++staged_count_[owner];
      ++messages_this_superstep_;
    } else {
      staging_[owner].push_back(VertexMessage{dst, message});
      ++messages_this_superstep_;
    }
    if (behavior_.overlap && staged_size(owner) >= batch_size_) {
      flush_batch(owner, superstep);
    }
  }
}

void DispatcherActor::flush_batch(std::size_t computer_index,
                                  std::uint64_t superstep) {
  if (staged_size(computer_index) == 0) {
    return;
  }
  ComputerMsg msg;
  msg.kind = ComputerMsg::Kind::kBatch;
  msg.superstep = superstep;
  if (range_staging_) {
    // Cache-ordered staging: concatenate the radix bins into a leased
    // buffer; the bins keep their capacity for the next window.
    msg.batch = pool_.lease();
    gather_bins(computer_index, msg.batch);
    staged_count_[computer_index] = 0;
  } else {
    // Legacy mod routing (ablation baseline): ship the staging buffer in
    // arrival order and lease its replacement.
    auto& buffer = staging_[computer_index];
    msg.batch = std::move(buffer);
    buffer = pool_.lease();
  }
  if (combining_) {
    ++combine_gen_[computer_index];  // O(1) direct-map reset
  }
  computers_[computer_index]->send(std::move(msg));
}

void DispatcherActor::flush_all(std::uint64_t superstep) {
  for (std::size_t i = 0; i < computers_.size(); ++i) {
    flush_batch(i, superstep);
  }
}

void DispatcherActor::gather_bins(std::size_t owner,
                                  std::vector<VertexMessage>& out) {
  // The leased buffer already carries message_batch capacity; this grows
  // it only when a batch exceeds that (the non-overlap ablation holds
  // whole intervals back). VertexMessage's no-op default constructor
  // keeps the resize from clearing elements the copies fully overwrite.
  out.resize(staged_count_[owner]);  // gpsa-lint: allow(msg-buffer-alloc)
  VertexMessage* cursor = out.data();
  const std::size_t base = owner * kRadixBins;
  // Ascending bins, arrival order within a bin: per-vertex fold order
  // matches the unsorted plane, so results stay bit-identical.
  for (std::size_t b = 0; b < kRadixBins; ++b) {
    std::vector<VertexMessage>& bin = bins_[base + b];
    cursor = std::copy(bin.begin(), bin.end(), cursor);
    bin.clear();
  }
  GPSA_DCHECK(cursor == out.data() + out.size());
}

}  // namespace gpsa
