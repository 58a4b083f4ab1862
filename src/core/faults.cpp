// SPDX-License-Identifier: MIT
#include "core/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/param_reader.hpp"

namespace cobra {

namespace {

/// Range checks written as !(in range), so NaN fails them too.
void validate(const FaultOptions& o) {
  if (!(o.drop >= 0.0 && o.drop <= 1.0)) {
    throw std::invalid_argument("faults: drop must be in [0, 1]");
  }
  if (!(o.churn >= 0.0 && o.churn <= 1.0)) {
    throw std::invalid_argument("faults: churn must be in [0, 1]");
  }
  if (o.churn_period > 0 && o.churn_down > o.churn_period) {
    throw std::invalid_argument(
        "faults: churn_down must be <= churn_period");
  }
  if (o.churn_period == 0 && o.churn_down > 0) {
    throw std::invalid_argument(
        "faults: churn_down needs churn_period >= 1");
  }
  if (o.duty_period > 0 && o.duty_awake > o.duty_period) {
    throw std::invalid_argument(
        "faults: duty_cycle awake rounds must be <= the period");
  }
  for (const double cost : {o.energy_tx, o.energy_rx, o.energy_idle}) {
    if (!(cost >= 0.0 && std::isfinite(cost))) {
      throw std::invalid_argument(
          "faults: energy costs must be finite and >= 0");
    }
  }
}

bool has_schedule(const FaultOptions& o) {
  return o.churn > 0.0 || o.churn_period > 0 || o.duty_period > 0;
}

}  // namespace

FaultModel::FaultModel(std::size_t num_vertices, FaultOptions options)
    : num_vertices_(num_vertices), options_(options) {
  validate(options_);
}

FaultSession::FaultSession(const FaultModel& model)
    : model_(&model),
      options_(&model.options()),
      scheduled_(has_schedule(model.options())),
      drop_threshold_(unit_threshold(model.options().drop)),
      churn_threshold_(unit_threshold(model.options().churn)),
      tx_(model.num_vertices(), 0),
      rx_(model.num_vertices(), 0) {
  const std::size_t n = model.num_vertices();
  if (scheduled_) {
    up_.assign(n, 1);
    awake_.assign(n, 1);
    listen_.assign(n, 0);
  }
  if (options_->churn_period > 0) phase_churn_.assign(n, 0);
  if (options_->duty_period > 0) phase_duty_.assign(n, 0);
}

std::uint64_t FaultSession::unit_threshold(double p) noexcept {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

void FaultSession::begin_trial(std::uint64_t entropy) {
  SplitMix64 sm(mix64(entropy, options_->seed));
  churn_base_ = sm.next();
  drop_base_ = sm.next();
  phase_key_ = sm.next();
  std::fill(tx_.begin(), tx_.end(), std::uint64_t{0});
  std::fill(rx_.begin(), rx_.end(), std::uint64_t{0});
  std::fill(listen_.begin(), listen_.end(), std::uint64_t{0});
  tx_total_ = delivered_ = dropped_ = blocked_ = listen_total_ = rounds_ = 0;
  // Per-vertex schedule phases: a fresh deterministic offset per trial so
  // periodic schedules are desynchronized across vertices (and trials).
  const std::size_t n = model_->num_vertices();
  if (options_->churn_period > 0) {
    const auto period = static_cast<std::uint64_t>(options_->churn_period);
    for (std::size_t v = 0; v < n; ++v) {
      phase_churn_[v] =
          static_cast<std::uint32_t>(mix3(phase_key_, 1, v) % period);
    }
  }
  if (options_->duty_period > 0) {
    const auto period = static_cast<std::uint64_t>(options_->duty_period);
    for (std::size_t v = 0; v < n; ++v) {
      phase_duty_[v] =
          static_cast<std::uint32_t>(mix3(phase_key_, 2, v) % period);
    }
  }
}

void FaultSession::begin_round(std::size_t round) {
  drop_key_ = mix64(drop_base_, round);
  ++rounds_;
  const std::size_t n = model_->num_vertices();
  if (!scheduled_) {
    listen_total_ += n;  // every vertex is up and awake
    return;
  }
  const std::uint64_t churn_key = mix64(churn_base_, round);
  const FaultOptions& o = *options_;
  for (std::size_t v = 0; v < n; ++v) {
    bool is_up = true;
    if (churn_threshold_ != 0) {
      is_up = (mix64(churn_key, v) >> 11) >= churn_threshold_;
    }
    if (is_up && o.churn_period > 0) {
      is_up = (round + phase_churn_[v]) % o.churn_period >= o.churn_down;
    }
    bool is_awake = true;
    if (o.duty_period > 0) {
      is_awake = (round + phase_duty_[v]) % o.duty_period < o.duty_awake;
    }
    up_[v] = is_up ? 1 : 0;
    awake_[v] = is_awake ? 1 : 0;
    if (is_up && is_awake) {
      ++listen_[v];
      ++listen_total_;
    }
  }
}

double FaultSession::vertex_energy(std::uint32_t v) const {
  const FaultOptions& o = *options_;
  return o.energy_tx * static_cast<double>(tx_[v]) +
         o.energy_rx * static_cast<double>(rx_[v]) +
         o.energy_idle * static_cast<double>(listen(v));
}

double FaultSession::total_energy() const {
  const FaultOptions& o = *options_;
  return o.energy_tx * static_cast<double>(tx_total_) +
         o.energy_rx * static_cast<double>(delivered_) +
         o.energy_idle * static_cast<double>(listen_total_);
}

const std::vector<FaultParamSpec>& fault_param_specs() {
  static const std::vector<FaultParamSpec> kSpecs = {
      {"drop", "float in [0,1] (default 0) — per-message channel drop "
               "probability"},
      {"churn", "float in [0,1] (default 0) — per-(vertex, round) "
                "probability of being down (seeded-random churn)"},
      {"churn_period", "int (default 0 = off) — periodic churn: period "
                       "length in rounds (per-vertex phase)"},
      {"churn_down", "int (default 0) — down rounds per churn_period"},
      {"duty_cycle", "A/P (default off) — each vertex receives only while "
                     "awake: A awake rounds per period of P (per-vertex "
                     "phase); A=0 means never awake"},
      {"energy_tx", "float >= 0 (default 1) — energy units per "
                    "transmitted message"},
      {"energy_rx", "float >= 0 (default 0.5) — energy units per "
                    "delivered message"},
      {"energy_idle", "float >= 0 (default 0.1) — energy units per "
                      "up-and-awake listening round"},
      {"fault_seed", "int (default 0) — extra key mixed into every fault "
                     "decision stream"},
  };
  return kSpecs;
}

bool fault_has_param(std::string_view key) {
  for (const FaultParamSpec& spec : fault_param_specs()) {
    if (key == spec.key) return true;
  }
  return false;
}

FaultOptions parse_fault_options(
    const std::vector<std::pair<std::string, std::string>>& params) {
  ParamReader<std::invalid_argument> p(params, "[faults]");
  FaultOptions options;
  options.drop = p.get_double("drop", 0.0);
  options.churn = p.get_double("churn", 0.0);
  const std::int64_t churn_period = p.get_int("churn_period", 0);
  const std::int64_t churn_down = p.get_int("churn_down", 0);
  if (churn_period < 0 || churn_down < 0) {
    throw std::invalid_argument(
        "[faults]: churn_period/churn_down must be >= 0");
  }
  options.churn_period = static_cast<std::size_t>(churn_period);
  options.churn_down = static_cast<std::size_t>(churn_down);
  if (p.has("duty_cycle")) {
    // Compound "A/P": A awake rounds out of each period of P.
    const std::string text = p.get("duty_cycle", "");
    const std::size_t slash = text.find('/');
    std::int64_t awake = -1;
    std::int64_t period = -1;
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < text.size();
    if (ok) {
      try {
        std::size_t used = 0;
        awake = std::stoll(text.substr(0, slash), &used);
        ok = used == slash;
        period = std::stoll(text.substr(slash + 1), &used);
        ok = ok && used == text.size() - slash - 1;
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok || awake < 0 || period < 1) {
      throw std::invalid_argument(
          "[faults]: duty_cycle expects 'A/P' (awake rounds / period, "
          "period >= 1), got '" + text + "'");
    }
    options.duty_awake = static_cast<std::size_t>(awake);
    options.duty_period = static_cast<std::size_t>(period);
  }
  options.energy_tx = p.get_double("energy_tx", options.energy_tx);
  options.energy_rx = p.get_double("energy_rx", options.energy_rx);
  options.energy_idle = p.get_double("energy_idle", options.energy_idle);
  options.seed = static_cast<std::uint64_t>(p.get_int("fault_seed", 0));
  p.finish();
  validate(options);
  return options;
}

std::uint64_t fault_session_bytes(const FaultOptions& options,
                                  std::uint64_t num_vertices) {
  // The tx/rx counters; with a schedule, the listen counters and the two
  // byte masks; a u32 phase array per periodic schedule.
  std::uint64_t per_vertex = 2 * 8;
  if (has_schedule(options)) per_vertex += 8 + 2 * 1;
  if (options.churn_period > 0) per_vertex += 4;
  if (options.duty_period > 0) per_vertex += 4;
  return num_vertices * per_vertex;
}

}  // namespace cobra
