// SPDX-License-Identifier: MIT
//
// The unified steppable process contract. Every spreading process in the
// repository — the paper's COBRA/BIPS engines, the classical baselines
// (push, pull, push-pull, flood, random walk, branching walk), and the
// source-free SIS epidemic — implements this one interface, so the
// scenario engine, the trial runner, and the benches drive all of them
// identically:
//
//   process.reset(rng, start);           // rewind; trial RNG handed over
//   while (!process.done()) process.step();
//   SpreadResult r = process.result();   // the uniform result shape
//
// or, equivalently, `process.run(rng, start)`.
//
// Contract:
//  * reset() rewinds to round 0 reusing the workspace — implementations
//    keep their O(n) arrays across trials, so per-trial heap allocation is
//    zero in steady state (measured by bench/micro_process).
//  * step() executes exactly one round; the per-trial RNG captured by
//    reset() is the only randomness source, so every result is a pure
//    function of (graph, options, starts, rng state) — independent of
//    observers, curve recording, or how many times result() is called.
//  * done() is true once the process is terminal (covered / fully
//    infected / extinct) or its round budget is exhausted; result()
//    distinguishes the two via SpreadResult::completed.
//  * A Process is a single-thread workspace. Trial loops build one per
//    thread (see run_process_trials); sharing one across threads is
//    undefined behaviour.
//
// RoundObserver is the typed per-round hook: after every step the process
// reports round/active/reached counts and the round's transmissions, the
// basis for frontier-anatomy plots, load accounting, and curve capture
// without touching the hot loop when no observer is attached.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/faults.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

class FaultModel;
class FaultSession;
class Process;

/// Snapshot handed to RoundObserver::on_round after each step.
struct RoundStats {
  std::size_t round = 0;    ///< rounds executed so far (>= 1 in on_round)
  std::size_t active = 0;   ///< size of the working set driving the next round
  std::size_t reached = 0;  ///< reached/infected vertices right now
  std::uint64_t round_transmissions = 0;  ///< messages sent this round
  std::uint64_t total_transmissions = 0;  ///< messages sent since reset()
  /// Fault-layer delivery metrics (zero without a FaultModel; see
  /// core/faults.hpp). round_delivered / round_transmissions is the
  /// round's packet-delivery ratio.
  std::uint64_t round_delivered = 0;  ///< messages delivered this round
  std::uint64_t total_delivered = 0;  ///< delivered since reset()
  std::uint64_t total_dropped = 0;    ///< lost to channel drop since reset()
  std::uint64_t total_blocked = 0;    ///< receiver down/asleep since reset()
  double energy = 0.0;  ///< fault-model energy accrued since reset()
};

/// Per-round hook. Observers are borrowed (never owned) by the process and
/// are invoked on the process's (single) driving thread.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  /// Called at the end of reset(), with the process rewound to round 0.
  virtual void on_reset(const Process& process) { (void)process; }

  /// Called after every step().
  virtual void on_round(const Process& process, const RoundStats& stats) = 0;
};

/// The common observer: captures the reached-count curve (one entry per
/// round, starting at round 0). For processes with the default curve
/// semantics this reproduces SpreadResult::curve exactly (tested).
class CurveObserver final : public RoundObserver {
 public:
  void on_reset(const Process& process) override;
  void on_round(const Process& process, const RoundStats& stats) override;
  const std::vector<std::size_t>& curve() const noexcept { return curve_; }

 private:
  std::vector<std::size_t> curve_;
};

class Process {
 public:
  virtual ~Process() = default;

  Process() = default;
  /// Trial loops build one process per thread through the factory
  /// (make_process), so nothing copies a process.
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process(Process&&) noexcept = default;
  Process& operator=(Process&&) noexcept = default;

  /// Rewinds to round 0 with the given start/source set, capturing `rng`
  /// as the trial's randomness. Throws std::invalid_argument (before
  /// mutating anything) on an invalid start set; single-start processes
  /// reject sets of size != 1.
  void reset(Rng rng, Vertex start) {
    reset(rng, std::span<const Vertex>(&start, 1));
  }
  void reset(Rng rng, std::span<const Vertex> starts);

  /// Executes one round using the RNG captured at reset(). Precondition:
  /// !done().
  void step();

  /// Terminal (covered / fully infected / extinct) or round budget spent.
  virtual bool done() const = 0;

  /// The uniform result snapshot for the rounds executed so far.
  SpreadResult result() const;

  /// reset() + step() until done(); returns result(). With no observer,
  /// fault model or curve attached, run_unobserved() may run the first
  /// rounds, ending in the same state.
  SpreadResult run(Rng rng, Vertex start) {
    return run(rng, std::span<const Vertex>(&start, 1));
  }
  SpreadResult run(Rng rng, std::span<const Vertex> starts);

  // ---- introspection (uniform across processes) ----

  /// Rounds executed since reset().
  virtual std::size_t round() const = 0;
  /// Reached/infected vertices right now (non-monotone for BIPS/SIS).
  virtual std::size_t reached_count() const = 0;
  /// Size of the working set driving the next round (frontier, active
  /// list, informed senders, ... — each implementation documents its own).
  virtual std::size_t active_count() const = 0;
  /// True once the process reached its success state (full cover /
  /// infection). Distinct from done(): a budget-exhausted or extinct
  /// process is done but not completed.
  virtual bool completed() const = 0;
  /// Messages/probes/moves since reset().
  virtual std::uint64_t total_transmissions() const = 0;
  /// Largest per-vertex single-round send since reset().
  virtual std::uint64_t peak_vertex_round_transmissions() const { return 0; }
  /// Round budget: done() is at the latest true once round() reaches this.
  virtual std::size_t round_limit() const = 0;

  /// Curve recorded since reset() (empty when recording is disabled).
  const std::vector<std::size_t>& curve() const noexcept { return curve_; }

  /// Attaches (or detaches, with nullptr) the per-round hook.
  void set_observer(RoundObserver* observer) noexcept { observer_ = observer; }

  /// Attaches a fault-injection model (core/faults.hpp): subsequent
  /// resets derive per-trial fault streams and every step runs the
  /// process's round under the fault session. The model is borrowed
  /// (never owned) and must outlive the process; it must be sized for the
  /// process's graph. nullptr detaches, restoring the fault-free
  /// (NoFaults) round. Allocates the session workspace once at attach —
  /// never during trials. Call before reset(); attaching mid-trial is
  /// undefined.
  void set_fault_model(const FaultModel* model);

  /// The live fault session (per-vertex tx/rx/listen counters, delivery
  /// totals, energy); nullptr when no model is attached.
  const FaultSession* fault_session() const noexcept {
    return fault_session_.get();
  }

 protected:
  /// Rewind all process state to round 0. Must validate-then-mutate so a
  /// throw leaves the previous trial's state intact.
  virtual void do_reset(std::span<const Vertex> starts) = 0;
  /// One round, drawing only from `rng`.
  virtual void do_step(Rng& rng) = 0;
  /// Called by run() after reset() when no observer, fault model or curve
  /// is attached, so no per-round hook has to run. An override may run any
  /// number of rounds in its own loop, drawing from `rng`, and must end in
  /// exactly the state as many step() calls reach, draw for draw; run()
  /// steps whatever is left. The default runs none.
  virtual void run_unobserved(Rng& rng) { (void)rng; }
  /// Whether reset()/step() record the curve (off for bulk Monte Carlo).
  virtual bool curve_enabled() const { return true; }
  /// reserve() hint applied once per workspace: the expected curve length,
  /// derived from the round budget (kept modest by kCurveReserveCap).
  virtual std::size_t curve_size_hint() const;
  /// Appends this round's curve point(s); default is reached-per-round.
  /// Called once from reset() (round 0) and once per step().
  virtual void append_curve_point() { curve_.push_back(reached_count()); }

  /// Derived classes with non-default curve semantics (e.g. the random
  /// walk's visit-event curve) append through this.
  std::vector<std::size_t>& mutable_curve() noexcept { return curve_; }

  /// The mutable fault session for do_step implementations; nullptr when
  /// no fault model is attached. A do_step runs its round under this
  /// session when it is non-null and under NoFaults otherwise (one
  /// template, core/faults.hpp); the base step() has already called
  /// begin_round for it.
  FaultSession* faults() noexcept { return fault_session_.get(); }

  /// Cap on the curve_size_hint default, so a 2^28-step walk budget does
  /// not translate into a gigabyte reserve.
  static constexpr std::size_t kCurveReserveCap = std::size_t{1} << 16;

 private:
  Rng rng_{0};
  RoundObserver* observer_ = nullptr;
  std::vector<std::size_t> curve_;
  std::unique_ptr<FaultSession> fault_session_;
};

}  // namespace cobra
