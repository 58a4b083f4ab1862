// SPDX-License-Identifier: MIT
#include "scenario/sink.hpp"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

namespace cobra::scenario {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_params_object(std::string& out, const ParamMap& params) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  }
  out += '}';
}

void append_summary_object(std::string& out, const Summary& summary) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"count\":%zu", summary.count);
  out += buf;
  const std::pair<const char*, double> fields[] = {
      {"mean", summary.mean}, {"stddev", summary.stddev},
      {"min", summary.min},   {"median", summary.median},
      {"p90", summary.p90},   {"p99", summary.p99},
      {"max", summary.max},
  };
  for (const auto& [name, value] : fields) {
    out += ",\"";
    out += name;
    out += "\":";
    out += format_double(value);
  }
  out += '}';
}

/// Params joined "k=v;..." minus the dispatch key ("family" / "name").
std::string params_compact(const ParamMap& params, std::string_view skip) {
  std::string out;
  for (const auto& [key, value] : params) {
    if (key == skip) continue;
    if (!out.empty()) out += ';';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void append_summary_payload(std::ostringstream& os, const Summary& s) {
  char buf[32];
  os << ' ' << s.count;
  for (const double value :
       {s.mean, s.stddev, s.min, s.median, s.p90, s.p99, s.max}) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << ' ' << buf;
  }
}

bool read_summary_payload(std::istringstream& is, Summary& s) {
  return static_cast<bool>(is >> s.count >> s.mean >> s.stddev >> s.min >>
                           s.median >> s.p90 >> s.p99 >> s.max);
}

std::string journal_header(const CampaignPlan& plan) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "cobra-scenario-journal v%u fp=%016llx jobs=%zu",
                kJournalFormatVersion,
                static_cast<unsigned long long>(plan.fingerprint),
                plan.jobs.size());
  return buf;
}

/// Flush to the kernel, then to the disk; false if either failed. The
/// resume rewrite (before its rename) and Journal::close() always sync;
/// appends sync at most once per Journal::kSyncInterval, since a process
/// kill loses nothing the kernel already holds.
bool flush_and_sync(std::FILE* out) {
  return std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
}

std::string io_error(const char* what, const std::string& path) {
  return std::string(what) + " journal '" + path + "': " +
         std::strerror(errno);
}

}  // namespace

std::string format_double(double value) {
  char buf[64];
  // Integral values (the common case: round counts) print as integers;
  // everything else gets the shortest precision that round-trips exactly:
  // the first p in 1..17 whose correctly rounded %.*g output parses back to
  // `value`. No p below the shortest round-trip digit count D (to_chars)
  // can, and at p = D the correctly rounded value is the D-digit value
  // nearest `value`, so it round-trips whenever any D-digit value does —
  // unless the round-trip interval is lopsided, which happens only at
  // powers of two (the gap below is half the gap above). Only those are
  // parsed back, continuing at D + 1 when D fails.
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  int precision = 17;  // nan and inf print the same at any precision
  if (std::isfinite(value)) {
    const auto chars = std::to_chars(buf, buf + sizeof buf, value,
                                     std::chars_format::scientific);
    precision = 0;
    for (const char* c = buf; c != chars.ptr && *c != 'e'; ++c) {
      precision += *c >= '0' && *c <= '9';
    }
  }
  int exponent = 0;
  const bool power_of_two = std::fabs(std::frexp(value, &exponent)) == 0.5;
  for (; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (!power_of_two || std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string jsonl_record(const CampaignPlan& plan, const JobSpec& job,
                         const JobResult& result) {
  std::string out;
  out.reserve(512);
  char buf[128];
  std::snprintf(buf, sizeof buf, "{\"job\":%zu,\"campaign\":\"", job.index);
  out += buf;
  out += json_escape(plan.name);
  std::snprintf(buf, sizeof buf, "\",\"seed\":%llu,\"graph\":",
                static_cast<unsigned long long>(job.seed_index));
  out += buf;
  append_params_object(out, job.graph);
  out += ",\"process\":";
  append_params_object(out, job.process);
  out += ",\"graph_name\":\"";
  out += json_escape(result.graph_name);
  std::snprintf(buf, sizeof buf, "\",\"trials\":%zu,\"failed\":%zu,\"rounds\":",
                result.trials, result.failed);
  out += buf;
  append_summary_object(out, result.rounds);
  out += ",\"transmissions\":";
  append_summary_object(out, result.transmissions);
  if (result.faulty) {
    out += ",\"faults\":";
    append_params_object(out, job.faults);
    out += ",\"pdr\":";
    append_summary_object(out, result.pdr);
    out += ",\"energy\":";
    append_summary_object(out, result.energy);
    std::snprintf(buf, sizeof buf,
                  ",\"delivered\":%llu,\"dropped\":%llu,\"blocked\":%llu",
                  static_cast<unsigned long long>(result.delivered),
                  static_cast<unsigned long long>(result.dropped),
                  static_cast<unsigned long long>(result.blocked));
    out += buf;
  }
  out += '}';
  return out;
}

std::string csv_header(bool faults) {
  std::string out =
      "job,seed,graph_name,family,graph_params,process,process_params,"
      "trials,failed,rounds_count,rounds_mean,rounds_stddev,rounds_min,"
      "rounds_median,rounds_p90,rounds_p99,rounds_max,tx_mean,tx_p90,"
      "tx_max";
  if (faults) {
    out +=
        ",fault_params,pdr_mean,pdr_min,energy_mean,energy_max,"
        "delivered,dropped,blocked";
  }
  return out;
}

std::string csv_row(const CampaignPlan& plan, const JobSpec& job,
                    const JobResult& result) {
  (void)plan;
  const std::string* family = find_param(job.graph, "family");
  const std::string* process = find_param(job.process, "name");
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%zu,%llu,", job.index,
                static_cast<unsigned long long>(job.seed_index));
  out += buf;
  out += csv_escape(result.graph_name);
  out += ',';
  out += csv_escape(family != nullptr ? *family : "");
  out += ',';
  out += csv_escape(params_compact(job.graph, "family"));
  out += ',';
  out += csv_escape(process != nullptr ? *process : "");
  out += ',';
  out += csv_escape(params_compact(job.process, "name"));
  std::snprintf(buf, sizeof buf, ",%zu,%zu,%zu,", result.trials,
                result.failed, result.rounds.count);
  out += buf;
  const double fields[] = {
      result.rounds.mean,   result.rounds.stddev, result.rounds.min,
      result.rounds.median, result.rounds.p90,    result.rounds.p99,
      result.rounds.max,    result.transmissions.mean,
      result.transmissions.p90, result.transmissions.max,
  };
  bool first = true;
  for (const double value : fields) {
    if (!first) out += ',';
    first = false;
    out += format_double(value);
  }
  if (result.faulty) {
    out += ',';
    out += csv_escape(params_compact(job.faults, ""));
    for (const double value : {result.pdr.mean, result.pdr.min,
                               result.energy.mean, result.energy.max}) {
      out += ',';
      out += format_double(value);
    }
    std::snprintf(buf, sizeof buf, ",%llu,%llu,%llu",
                  static_cast<unsigned long long>(result.delivered),
                  static_cast<unsigned long long>(result.dropped),
                  static_cast<unsigned long long>(result.blocked));
    out += buf;
  }
  return out;
}

std::string serialize_job_result(const JobResult& result) {
  std::ostringstream os;
  os << result.trials << ' ' << result.failed;
  append_summary_payload(os, result.rounds);
  append_summary_payload(os, result.transmissions);
  // The optional fault block ("F" marker + pdr/energy summaries + raw
  // delivery totals) sits before the graph name; faults-off payloads are
  // byte-identical to the pre-fault-layer format, so old journals resume.
  if (result.faulty) {
    os << " F";
    append_summary_payload(os, result.pdr);
    append_summary_payload(os, result.energy);
    os << ' ' << result.delivered << ' ' << result.dropped << ' '
       << result.blocked;
  }
  os << ' ' << result.graph_name;
  return os.str();
}

bool parse_job_result(const std::string& payload, JobResult& result) {
  std::istringstream is(payload);
  if (!(is >> result.trials >> result.failed)) return false;
  if (!read_summary_payload(is, result.rounds)) return false;
  if (!read_summary_payload(is, result.transmissions)) return false;
  result.faulty = false;
  result.pdr = Summary{};
  result.energy = Summary{};
  result.delivered = result.dropped = result.blocked = 0;
  const std::istringstream::pos_type before_marker = is.tellg();
  std::string marker;
  if (is >> marker && marker == "F") {
    result.faulty = true;
    if (!read_summary_payload(is, result.pdr)) return false;
    if (!read_summary_payload(is, result.energy)) return false;
    if (!(is >> result.delivered >> result.dropped >> result.blocked)) {
      return false;
    }
  } else {
    // Legacy faults-off payload — rewind so the token is re-read as (the
    // head of) the graph name.
    is.clear();
    is.seekg(before_marker);
  }
  is.get();  // the separating space
  std::getline(is, result.graph_name);
  return !result.graph_name.empty();
}

Journal::Journal(const std::string& path, const CampaignPlan& plan,
                 bool resume) {
  const std::string header = journal_header(plan);
  if (resume) {
    std::ifstream in(path);
    if (in) {
      std::string line;
      if (std::getline(in, line)) {
        unsigned version = 0;
        if (std::sscanf(line.c_str(), "cobra-scenario-journal v%u",
                        &version) == 1 &&
            version != kJournalFormatVersion) {
          throw SpecError(
              "journal '" + path + "' has format v" +
              std::to_string(version) + " but this build writes v" +
              std::to_string(kJournalFormatVersion) +
              ": the version changes whenever a generator's output for a "
              "fixed (spec, seed) changes, so its results would mix graphs "
              "from two samplers; rerun with --fresh to discard it");
        }
        if (line != header) {
          throw SpecError(
              "journal '" + path + "' belongs to a different campaign "
              "(spec, trials, or base_seed changed); rerun with --fresh to "
              "discard it");
        }
        while (std::getline(in, line)) {
          std::size_t index = 0;
          std::size_t length = 0;
          int consumed = 0;
          if (std::sscanf(line.c_str(), "job %zu %zu %n", &index, &length,
                          &consumed) != 2) {
            continue;  // partial frame from a kill mid-write
          }
          const std::string body = line.substr(consumed);
          if (body.size() != length || index >= plan.jobs.size()) continue;
          JobResult result;
          if (parse_job_result(body, result)) restored_[index] = result;
        }
      }
    }
  }
  // Rewrite header + restored frames from scratch: a kill mid-write leaves
  // a partial line with no terminator (a torn trailing frame), and
  // appending after it would glue the next record onto the garbage, losing
  // a valid checkpoint on the following resume. The rewrite truncates the
  // torn tail away and continues; it goes through a temp file + rename
  // (fsync'd before the rename) so a kill during the rewrite itself cannot
  // destroy prior checkpoints.
  const std::string tmp = path + ".tmp";
  {
    std::FILE* rewrite = std::fopen(tmp.c_str(), "w");
    if (rewrite == nullptr) {
      throw SpecError("cannot open journal '" + tmp + "' for writing");
    }
    bool ok = std::fprintf(rewrite, "%s\n", header.c_str()) > 0;
    for (const auto& [index, result] : restored_) {
      const std::string payload = serialize_job_result(result);
      ok = ok && std::fprintf(rewrite, "job %zu %zu %s\n", index,
                              payload.size(), payload.c_str()) > 0;
    }
    ok = flush_and_sync(rewrite) && ok;
    ok = std::fclose(rewrite) == 0 && ok;
    if (!ok) throw SpecError(io_error("failed writing", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SpecError("cannot replace journal '" + path + "'");
  }
  for (const auto& [index, result] : restored_) written_.insert(index);
  path_ = path;
  out_ = std::fopen(path.c_str(), "a");
  if (out_ == nullptr) {
    throw SpecError("cannot open journal '" + path + "' for writing");
  }
  last_sync_ = std::chrono::steady_clock::now();  // the rewrite was synced
}

Journal::~Journal() {
  try {
    close();
  } catch (const std::exception& e) {
    // Reached without close(), typically while another error unwinds.
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
}

void Journal::write_frame(const std::string& frame) {
  if (std::fputs(frame.c_str(), out_) == EOF || std::fflush(out_) != 0) {
    throw SpecError(io_error("failed writing", path_));
  }
  // Group commit: one fsync covers every frame written since the last.
  const auto now = std::chrono::steady_clock::now();
  if (now - last_sync_ < kSyncInterval) return;
  if (::fsync(::fileno(out_)) != 0) {
    throw SpecError(io_error("failed syncing", path_));
  }
  last_sync_ = now;
}

void Journal::append(std::size_t index, const JobResult& result) {
  const std::string payload = serialize_job_result(result);
  write_frame("job " + std::to_string(index) + " " +
              std::to_string(payload.size()) + " " + payload + "\n");
  written_.insert(index);
}

bool Journal::merge(std::size_t index, const JobResult& result) {
  if (contains(index)) return false;
  append(index, result);
  return true;
}

void Journal::note(const std::string& text) {
  write_frame("note " + text + "\n");
}

void Journal::close() {
  if (out_ == nullptr) return;
  std::string error;
  if (!flush_and_sync(out_)) error = io_error("failed syncing", path_);
  if (std::fclose(out_) != 0 && error.empty()) {
    error = io_error("failed closing", path_);
  }
  out_ = nullptr;
  if (!error.empty()) throw SpecError(error);
}

}  // namespace cobra::scenario
