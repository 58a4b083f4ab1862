// SPDX-License-Identifier: MIT
#include "core/process.hpp"

#include <algorithm>

namespace cobra {

void CurveObserver::on_reset(const Process& process) {
  curve_.clear();
  curve_.push_back(process.reached_count());
}

void CurveObserver::on_round(const Process&, const RoundStats& stats) {
  curve_.push_back(stats.reached);
}

std::size_t Process::curve_size_hint() const {
  return std::min(round_limit() + 1, kCurveReserveCap);
}

void Process::set_fault_model(const FaultModel* model) {
  fault_session_ =
      model != nullptr ? std::make_unique<FaultSession>(*model) : nullptr;
}

void Process::reset(Rng rng, std::span<const Vertex> starts) {
  do_reset(starts);  // may throw; old state stays intact, curve untouched
  rng_ = rng;
  // Fault streams are seeded from one trial-RNG draw, so every fault
  // decision is a pure function of (base seed, trial index, fault seed).
  // The draw shifts the process's own stream — harmless, since fault-mode
  // rounds are a different stream anyway, and with no model attached the
  // stream is untouched.
  if (fault_session_ != nullptr) fault_session_->begin_trial(rng_());
  curve_.clear();
  if (curve_enabled()) {
    // One-time reserve per workspace: long SIS/walk curves grow to their
    // hinted length without the doubling reallocations, and later trials
    // inherit the capacity (clear() keeps it).
    if (curve_.capacity() == 0) curve_.reserve(curve_size_hint());
    append_curve_point();
  }
  if (observer_ != nullptr) observer_->on_reset(*this);
}

void Process::step() {
  const std::uint64_t tx_before = total_transmissions();
  const std::uint64_t delivered_before =
      fault_session_ != nullptr ? fault_session_->delivered_total() : 0;
  // Fault decisions for the upcoming round are keyed by the round index
  // before the step, and the round's up/awake masks are computed (and
  // idle listening accrued) before the process reads them.
  if (fault_session_ != nullptr) fault_session_->begin_round(round());
  do_step(rng_);
  if (curve_enabled()) append_curve_point();
  if (observer_ != nullptr) {
    RoundStats stats;
    stats.round = round();
    stats.active = active_count();
    stats.reached = reached_count();
    stats.total_transmissions = total_transmissions();
    stats.round_transmissions = stats.total_transmissions - tx_before;
    if (fault_session_ != nullptr) {
      stats.total_delivered = fault_session_->delivered_total();
      stats.round_delivered = stats.total_delivered - delivered_before;
      stats.total_dropped = fault_session_->dropped_total();
      stats.total_blocked = fault_session_->blocked_total();
      stats.energy = fault_session_->total_energy();
    }
    observer_->on_round(*this, stats);
  }
}

SpreadResult Process::result() const {
  SpreadResult result;
  result.completed = completed();
  result.rounds = round();
  result.final_count = reached_count();
  result.curve = curve_;
  result.total_transmissions = total_transmissions();
  result.peak_vertex_round_transmissions = peak_vertex_round_transmissions();
  if (fault_session_ != nullptr) {
    result.delivered = fault_session_->delivered_total();
    result.dropped_channel = fault_session_->dropped_total();
    result.blocked_receiver = fault_session_->blocked_total();
    result.energy = fault_session_->total_energy();
  }
  return result;
}

SpreadResult Process::run(Rng rng, std::span<const Vertex> starts) {
  reset(rng, starts);
  if (observer_ == nullptr && fault_session_ == nullptr && !curve_enabled()) {
    run_unobserved(rng_);
  }
  while (!done()) step();
  return result();
}

}  // namespace cobra
