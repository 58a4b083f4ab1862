// SPDX-License-Identifier: MIT
//
// Deterministic fault injection between Process and Graph: per-message
// channel drops, vertex up/down churn (seeded-random and periodic), and
// duty-cycle schedules where a vertex only *receives* while awake —
// plus per-vertex message/energy accounting (tx / rx / idle-listen).
//
// Semantics ("delay, never corrupt"):
//  * A DOWN vertex (churn) neither sends nor receives; its process state
//    is frozen for the round.
//  * An ASLEEP vertex (duty cycle) still sends but cannot receive — the
//    wake-up-radio model of the related sensor-network work.
//  * A message is DELIVERED iff the sender is up, the channel did not
//    drop it, and the receiver is up and awake. Undelivered messages
//    delay spreading; they never corrupt membership (no process ever
//    un-reaches a vertex because of a fault).
//  * Conservation invariant (tested): tx == delivered + dropped_channel
//    + blocked_receiver.
//
// Determinism: every fault decision is a pure function of
// (trial entropy, FaultOptions::seed, round, vertex [, message index])
// through keyed SplitMix64 streams — independent of the trial RNG's
// consumption pattern and of thread count. The trial entropy is one
// 64-bit draw the process takes from its trial RNG at reset, so fault
// schedules differ per trial but are bitwise reproducible from
// (base_seed, job index, trial index) like everything else.
//
// Each process writes its round once, as a template over a fault policy:
// FaultSession when a model is attached, NoFaults otherwise. NoFaults's
// checks are constants that compile away, so a fault-free round draws
// exactly the stream it drew before this layer existed (pinned by the
// golden digests in tests/ and CI-enforced on the scenario outputs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rand/rng.hpp"

namespace cobra {

struct FaultOptions {
  /// Per-message channel drop probability in [0, 1].
  double drop = 0.0;
  /// Seeded-random churn: per-(vertex, round) probability of being down.
  double churn = 0.0;
  /// Periodic churn: each vertex is down for `churn_down` rounds out of
  /// every `churn_period` (per-vertex phase, derived from the trial
  /// entropy). 0 = off. Random and periodic churn compose: a vertex is
  /// down if either schedule says so.
  std::size_t churn_period = 0;
  std::size_t churn_down = 0;
  /// Duty cycle: each vertex is awake (able to receive) for `duty_awake`
  /// rounds out of every `duty_period` (per-vertex phase). 0 = off
  /// (always awake). duty_awake = 0 means never awake.
  std::size_t duty_period = 0;
  std::size_t duty_awake = 0;
  /// Energy model (abstract units per event): cost of one transmitted
  /// message, one received (delivered) message, and one idle-listen round
  /// (a round spent up and awake). energy(v) = e_tx*tx(v) + e_rx*rx(v) +
  /// e_idle*listen(v).
  double energy_tx = 1.0;
  double energy_rx = 0.5;
  double energy_idle = 0.1;
  /// Extra stream key mixed into every fault decision, so two campaigns
  /// can differ only in their fault schedules.
  std::uint64_t seed = 0;
};

/// Validated, graph-bound fault configuration. Immutable and cheap; the
/// per-process mutable state lives in FaultSession.
class FaultModel {
 public:
  /// Validates ranges (throws std::invalid_argument on drop/churn outside
  /// [0,1] or NaN, churn_down > churn_period, duty_awake > duty_period,
  /// and a negative or non-finite energy cost).
  FaultModel(std::size_t num_vertices, FaultOptions options);

  const FaultOptions& options() const noexcept { return options_; }
  std::size_t num_vertices() const noexcept { return num_vertices_; }

 private:
  std::size_t num_vertices_;
  FaultOptions options_;
};

/// The fault policy of a round with no fault model attached: every vertex
/// sends and receives and every message is delivered. kLossless tells a
/// round template where the lossless round may differ from the faulty
/// one: stop probing at the first hit, send only from the frontier, take a
/// shortcut that a lost message would invalidate.
struct NoFaults {
  static constexpr bool kLossless = true;
  static constexpr bool can_send(std::uint32_t) noexcept { return true; }
  static constexpr bool can_receive(std::uint32_t) noexcept { return true; }
  static constexpr bool transmit(std::uint32_t, std::uint32_t,
                                 std::uint32_t) noexcept {
    return true;
  }
};
inline constexpr NoFaults kNoFaults{};

/// Per-process fault state: the keyed decision streams, the per-vertex
/// tx/rx counters and, for a model with a per-vertex schedule (random
/// churn, periodic churn or a duty cycle), the per-round up/awake masks
/// and listen counters. Owned by a Process (one per workspace, allocated
/// once at attach — the zero steady-state-allocation contract holds;
/// per-trial work is O(n) fills).
///
/// A round pays only for the faults configured: without a schedule every
/// vertex is up and awake, so begin_round is O(1) (listen(v) is the number
/// of rounds begun) and can_send / can_receive / transmit read no masks.
class FaultSession {
 public:
  /// Messages can be lost (see NoFaults).
  static constexpr bool kLossless = false;

  explicit FaultSession(const FaultModel& model);

  /// ceil(p * 2^53) for p in [0, 1]: the number of 53-bit values x with
  /// x * 2^-53 < p, so `(h >> 11) < unit_threshold(p)` makes exactly the
  /// decision `(h >> 11) * 2^-53 < p` without converting to double.
  static std::uint64_t unit_threshold(double p) noexcept;

  /// Starts a trial: derives the trial's decision streams from `entropy`
  /// (one draw of the trial RNG) mixed with FaultOptions::seed, zeroes
  /// all counters, and derives the per-vertex schedule phases.
  void begin_trial(std::uint64_t entropy);

  /// Starts round `round` (the process's round index *before* the step):
  /// keys the round's drop stream and, for a scheduled model, computes the
  /// up/awake masks; accrues one idle-listen round for every up-and-awake
  /// vertex.
  void begin_round(std::size_t round);

  /// Down vertices neither send nor receive; asleep ones still send.
  bool can_send(std::uint32_t v) const noexcept {
    return !scheduled_ || up_[v] != 0;
  }
  bool can_receive(std::uint32_t v) const noexcept {
    return !scheduled_ || (up_[v] != 0 && awake_[v] != 0);
  }

  /// Records one message from `from` (its `index`-th transmission this
  /// round) to `to` and returns whether it was delivered. The channel
  /// decides first, then the receiver's state. Precondition:
  /// can_send(from) — callers skip down senders entirely.
  bool transmit(std::uint32_t from, std::uint32_t index, std::uint32_t to) {
    ++tx_[from];
    ++tx_total_;
    if (drop_threshold_ != 0 &&
        (mix3(drop_key_, from, index) >> 11) < drop_threshold_) {
      ++dropped_;
      return false;
    }
    if (!can_receive(to)) {
      ++blocked_;
      return false;
    }
    ++rx_[to];
    ++delivered_;
    return true;
  }

  /// Bulk accounting for aggregated send paths (e.g. the branching walk's
  /// saturated even-share split), where per-message decision streams would
  /// cost O(messages): the caller computes the split deterministically and
  /// records the totals here, so the conservation invariant (tx ==
  /// delivered + dropped + blocked) still holds exactly.
  void record_tx_bulk(std::uint32_t from, std::uint64_t count) {
    tx_[from] += count;
    tx_total_ += count;
  }
  void record_rx_bulk(std::uint32_t to, std::uint64_t count) {
    rx_[to] += count;
    delivered_ += count;
  }
  void record_dropped_bulk(std::uint64_t count) { dropped_ += count; }
  void record_blocked_bulk(std::uint64_t count) { blocked_ += count; }

  // ---- aggregate counters (since begin_trial) ----
  std::uint64_t tx_total() const noexcept { return tx_total_; }
  std::uint64_t delivered_total() const noexcept { return delivered_; }
  std::uint64_t dropped_total() const noexcept { return dropped_; }
  std::uint64_t blocked_total() const noexcept { return blocked_; }
  std::uint64_t listen_total() const noexcept { return listen_total_; }

  // ---- per-vertex counters ----
  std::uint64_t tx(std::uint32_t v) const { return tx_[v]; }
  std::uint64_t rx(std::uint32_t v) const { return rx_[v]; }
  std::uint64_t listen(std::uint32_t v) const {
    return scheduled_ ? listen_[v] : rounds_;
  }

  /// energy(v) = e_tx*tx(v) + e_rx*rx(v) + e_idle*listen(v).
  double vertex_energy(std::uint32_t v) const;
  /// Sum of vertex_energy over all vertices (computed from the totals).
  double total_energy() const;

  const FaultModel& model() const noexcept { return *model_; }

 private:
  /// SplitMix-style combine (same shape as Rng::for_trial's premix).
  static std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
    SplitMix64 sm(a ^ (0x632be59bd9b4e019ULL * (b + 1)));
    return sm.next();
  }
  static std::uint64_t mix3(std::uint64_t key, std::uint64_t a,
                            std::uint64_t b) noexcept {
    return mix64(mix64(key, a), b);
  }

  const FaultModel* model_;
  const FaultOptions* options_;
  /// Random churn, periodic churn or a duty cycle is configured: rounds
  /// sweep the vertices, and the masks and listen counters below exist.
  bool scheduled_;
  std::uint64_t drop_threshold_;   ///< unit_threshold(drop)
  std::uint64_t churn_threshold_;  ///< unit_threshold(churn)
  std::vector<char> up_;
  std::vector<char> awake_;
  std::vector<std::uint32_t> phase_churn_;
  std::vector<std::uint32_t> phase_duty_;
  std::vector<std::uint64_t> tx_;
  std::vector<std::uint64_t> rx_;
  std::vector<std::uint64_t> listen_;
  std::uint64_t churn_base_ = 0;  ///< trial key of the random-churn stream
  std::uint64_t drop_base_ = 0;   ///< trial key of the channel-drop stream
  std::uint64_t phase_key_ = 0;   ///< trial key of the schedule phases
  std::uint64_t drop_key_ = 0;    ///< mix64(drop_base_, round)
  std::uint64_t tx_total_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t listen_total_ = 0;
  std::uint64_t rounds_ = 0;  ///< rounds begun this trial
};

/// One accepted [faults] key plus its --list documentation (the scenario
/// planner validates keys against this table, scenario_runner --list
/// prints it).
struct FaultParamSpec {
  const char* key;
  const char* doc;
};
const std::vector<FaultParamSpec>& fault_param_specs();
bool fault_has_param(std::string_view key);

/// Parses a resolved [faults] parameter list (scenario shape: declaration
/// ordered (key, value) string pairs) into validated FaultOptions.
/// `duty_cycle` takes the compound form "A/P" (awake rounds / period).
/// Throws std::invalid_argument naming the offending key.
FaultOptions parse_fault_options(
    const std::vector<std::pair<std::string, std::string>>& params);

/// Estimated resident bytes of one FaultSession (per process workspace):
/// what scenario_runner --dry-run folds into per-job memory lines.
std::uint64_t fault_session_bytes(const FaultOptions& options,
                                  std::uint64_t num_vertices);

}  // namespace cobra
