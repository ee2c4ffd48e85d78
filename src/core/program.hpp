// The user-facing vertex-program interface (paper §IV.E/F, Fig. 3).
//
// A graph application supplies four hooks, mirroring the paper's
// `initialize`, `genMsg`, and `compute` functions:
//
//   init(v)           -- initial payload and activity of vertex v
//                        (PageRank: 1/N and active; BFS: 0/active for the
//                        root, INF/inactive elsewhere).
//   gen_msg(...)      -- message payload sent along one out-edge of an
//                        *active* vertex. Receives the out-degree (read
//                        straight from the Fig. 4c CSR record, so no extra
//                        lookup) and the destination (so synthetic edge
//                        weights can be derived, e.g. SSSP).
//   first_update(...) -- accumulator seed when the first message of a
//                        superstep reaches a vertex. Monotone apps seed
//                        with the stored value (min-fold); PageRank seeds
//                        with the teleport term and ignores the old rank.
//   compute(...)      -- folds one message into the accumulator
//                        (Algorithm 3 line 10).
//
// All engines in this repository (GPSA, the GraphChi-style PSW baseline,
// the X-Stream-style baseline, and the sequential reference) execute the
// same Program, which is what makes the cross-engine equivalence tests and
// the benchmark comparisons meaningful.
//
// Payloads are raw 31-bit-safe words (storage/slot.hpp): integers below
// 2^31, or non-negative floats via float_to_payload/payload_to_float.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "graph/types.hpp"
#include "storage/slot.hpp"

namespace gpsa {

class Program {
 public:
  virtual ~Program() = default;

  virtual std::string name() const = 0;

  struct InitialState {
    Payload value = 0;
    bool active = false;
  };

  /// Initial value/activity of vertex v in a graph of num_vertices.
  virtual InitialState init(VertexId v, VertexId num_vertices) const = 0;

  /// Message payload for edge src -> dst given src's current value.
  virtual Payload gen_msg(VertexId src, VertexId dst, Payload value,
                          std::uint32_t out_degree) const = 0;

  /// True when gen_msg ignores `dst` (PageRank's share, BFS's depth+1,
  /// CC's label): the dispatcher then calls it once per vertex instead of
  /// once per out-edge, hoisting the virtual call — and any per-message
  /// arithmetic like PageRank's divide — out of the edge loop. SSSP keeps
  /// the default (its synthetic edge weight depends on the endpoint).
  virtual bool uniform_gen_msg() const { return false; }

  /// Accumulator seed for the first message of a superstep at vertex v,
  /// given v's current stored payload.
  virtual Payload first_update(VertexId v, Payload stored) const = 0;

  /// Folds one message into the accumulator. A GPSA computing actor folds
  /// messages as they arrive, and with more than one dispatcher the
  /// arrival order depends on the schedule. Results are bit-identical
  /// across worker counts, I/O backends and checkpoint cadences only when
  /// this fold is exactly commutative and associative (min, max, integer
  /// sum), or when the program opts into exact_sum(). A float sum that
  /// does neither is equal only up to rounding from run to run.
  virtual Payload compute(Payload accumulator, Payload message) const = 0;

  /// True when compute(acc, msg) is the float sum payload_to_float(acc) +
  /// payload_to_float(msg) over non-negative values below 8, and the
  /// first_update seed is such a value too. The GPSA computing actor then
  /// folds in exact 64-bit fixed point instead (core/exact_sum.hpp), so
  /// the stored result no longer depends on message arrival order: the
  /// seed and every message convert on their own, integer adds are
  /// associative, and the slot receives the float of the final sum.
  /// `changed` is then judged once per superstep, on that final sum. A
  /// value of 8 or more fails the run. The baselines, the reference and
  /// the cluster engine keep calling compute().
  virtual bool exact_sum() const { return false; }

  /// Whether the post-fold value counts as an update relative to the value
  /// the vertex held before this superstep (drives the stale flag and
  /// therefore next superstep's dispatch set).
  virtual bool changed(Payload before, Payload after) const {
    return before != after;
  }

  /// Superstep budget; algorithms that run to quiescence leave this
  /// unbounded and rely on the zero-messages termination rule.
  virtual std::uint64_t max_supersteps() const {
    return std::numeric_limits<std::uint64_t>::max();
  }

  // --- Optional delta programming (PagerankDelta, DESIGN.md §12) -----------
  // A delta program's messages carry the *change* in a vertex's value
  // since the last time that vertex dispatched, not the value itself. The
  // dispatcher keeps a per-vertex last-sent plane (written only by the
  // owning dispatcher, so no synchronization) and hands gen_msg
  // delta(current, last_sent) in place of the raw value; `changed` is then
  // typically gated on an epsilon (GPSA_DELTA_EPS) so sub-threshold
  // residual growth stops re-activating the vertex and the run quiesces.

  /// True when gen_msg expects delta(current, last_sent) instead of the
  /// stored value. The engines then maintain the last-sent plane.
  virtual bool delta_messages() const { return false; }

  /// The change to propagate given the current stored value and the value
  /// as of this vertex's previous dispatch (0 before the first dispatch).
  /// Only called when delta_messages() is true.
  virtual Payload delta(Payload current, Payload last_sent) const {
    (void)last_sent;
    return current;
  }

  // --- Optional Pregel-style message combiner -------------------------------
  // When supported (and enabled via EngineOptions::enable_combiner), the
  // dispatcher merges messages bound for the same destination inside its
  // staging buffers before sending, cutting mailbox traffic. Correctness
  // requirement: compute(compute(seed, a), b) == compute(seed,
  // combine(a, b)) — true for min/max/sum/or folds.

  virtual bool has_combiner() const { return false; }

  /// Merges two messages for the same destination. Only called when
  /// has_combiner() is true.
  virtual Payload combine(Payload a, Payload b) const {
    (void)a;
    return b;
  }
};

}  // namespace gpsa
