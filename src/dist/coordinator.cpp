// SPDX-License-Identifier: MIT
#include "dist/coordinator.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>
#include <thread>
#include <vector>

#include "dist/lease.hpp"
#include "dist/protocol.hpp"
#include "obs/progress.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "util/build_info.hpp"
#include "util/stopwatch.hpp"

namespace cobra::dist {

using scenario::CampaignPlan;
using scenario::JobResult;
using scenario::Journal;
using scenario::SpecError;

struct Coordinator::Impl {
  CampaignPlan plan;
  std::string spec_text;
  CoordinatorOptions options;
  std::string stem;

  Listener listener;
  std::unique_ptr<Journal> journal;
  std::unique_ptr<LeaseTable> lease;

  // ---- shared merge state (mutex-guarded) ----
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<std::optional<JobResult>> results;
  std::size_t total = 0;
  std::size_t resumed = 0;
  std::size_t merged = 0;
  std::size_t duplicates = 0;
  std::size_t workers_served = 0;
  std::size_t workers_connected = 0;
  std::uint64_t next_worker_id = 0;
  bool errored = false;
  std::string first_error;
  bool stopping = false;
  std::vector<int> active_fds;  ///< live handler sockets, for broadcast

  /// Graph files the plan's own [graph] file= params reference — the only
  /// paths GRAPH_REQUEST will serve (the coordinator is not a general
  /// file server). Immutable after construction.
  std::set<std::string> graph_files;

  // ---- threads ----
  std::thread accept_thread;
  std::vector<std::thread> handlers;
  bool accepting = false;

  explicit Impl(CampaignPlan plan_in, std::string spec_text_in,
                CoordinatorOptions options_in)
      : plan(std::move(plan_in)),
        spec_text(std::move(spec_text_in)),
        options(std::move(options_in)) {
    stem = !options.output.empty() ? options.output : plan.output;
    for (const scenario::JobSpec& job : plan.jobs) {
      const std::string* family = scenario::find_param(job.graph, "family");
      const std::string* file = scenario::find_param(job.graph, "file");
      if (family != nullptr && *family == "file" && file != nullptr) {
        graph_files.insert(*file);
      }
    }
    total = plan.jobs.size();
    results.assign(total, std::nullopt);
    if (!stem.empty()) {
      journal = std::make_unique<Journal>(stem + ".journal", plan,
                                          options.resume);
      for (const auto& [index, restored] : journal->restored()) {
        results[index] = restored;
      }
      resumed = journal->restored().size();
      // Provenance stamp: which binary served this campaign. Cross-machine
      // runs are auditable from the journal alone.
      journal->note("coordinator build " + build_info_string());
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < total; ++i) {
      if (!results[i].has_value()) pending.push_back(i);
    }
    std::size_t shard_size = options.shard_size;
    if (shard_size == 0) {
      shard_size = std::clamp<std::size_t>(pending.size() / 8, 1, 64);
    }
    std::vector<std::vector<std::size_t>> shards;
    for (std::size_t at = 0; at < pending.size(); at += shard_size) {
      const std::size_t end = std::min(at + shard_size, pending.size());
      shards.emplace_back(pending.begin() + at, pending.begin() + end);
    }
    if (journal && !shards.empty()) {
      journal->note("dist shards=" + std::to_string(shards.size()) +
                    " shard_size=" + std::to_string(shard_size));
    }
    lease = std::make_unique<LeaseTable>(
        std::move(shards),
        std::chrono::milliseconds(static_cast<long long>(
            std::max(0.05, options.lease_timeout_seconds) * 1000.0)));

    listener = Listener::bind_local(options.port);
  }

  void log_line(const std::string& text) {
    if (options.log != nullptr) {
      std::lock_guard lock(mutex);
      *options.log << "[dist] " << text << "\n";
    }
  }

  bool campaign_done() const {  // callers hold mutex
    return merged + resumed == total;
  }

  /// One worker connection, handshake to disconnect. Any transport error
  /// is treated as a worker death: requeue its leases and move on.
  void handle_connection(Socket socket) {
    std::uint64_t id = 0;
    bool counted = false;
    {
      std::lock_guard lock(mutex);
      active_fds.push_back(socket.fd());
    }
    try {
      id = handshake(socket, counted);
      if (id != 0) serve_worker(socket, id);
    } catch (const ProtocolError&) {
      // Connection died (kill -9 closes the socket; a torn frame reads the
      // same) — the lease release below is the repair path.
    } catch (const SpecError& e) {
      fail(e.what());  // the journal could not be written: stop the campaign
    }
    const std::size_t requeued = id != 0 ? lease->release_worker(id) : 0;
    {
      std::lock_guard lock(mutex);
      active_fds.erase(
          std::find(active_fds.begin(), active_fds.end(), socket.fd()));
      if (counted) --workers_connected;
    }
    if (requeued > 0) {
      log_line("worker " + std::to_string(id) + " lost; requeued " +
               std::to_string(requeued) + " shard(s)");
    } else if (id != 0) {
      log_line("worker " + std::to_string(id) + " disconnected");
    }
  }

  /// Returns the worker id, or 0 if the worker was rejected.
  std::uint64_t handshake(Socket& socket, bool& counted) {
    Frame frame;
    if (!socket.recv_frame(frame)) return 0;
    if (frame.type != FrameType::kHello) {
      socket.send_frame(FrameType::kReject, "expected HELLO");
      return 0;
    }
    const HelloMsg hello = decode_hello(frame.payload);
    if (hello.protocol != kProtocolVersion ||
        hello.journal_format != scenario::kJournalFormatVersion) {
      socket.send_frame(
          FrameType::kReject,
          "version mismatch: coordinator protocol v" +
              std::to_string(kProtocolVersion) + " journal v" +
              std::to_string(scenario::kJournalFormatVersion) +
              ", worker protocol v" + std::to_string(hello.protocol) +
              " journal v" + std::to_string(hello.journal_format) +
              " — rebuild the stale side");
      return 0;
    }
    std::uint64_t id = 0;
    {
      std::lock_guard lock(mutex);
      id = ++next_worker_id;
      ++workers_served;
      ++workers_connected;
      counted = true;
      if (journal) {
        journal->note("worker " + std::to_string(id) + " connect " +
                      hello.build_info);
      }
    }
    WelcomeMsg welcome;
    welcome.journal_format = scenario::kJournalFormatVersion;
    welcome.build_info = build_info_string();
    welcome.fingerprint = plan.fingerprint;
    welcome.worker_id = id;
    welcome.spec_text = spec_text;
    socket.send_frame(FrameType::kWelcome, encode_welcome(welcome));
    log_line("worker " + std::to_string(id) + " joined (" +
             hello.build_info + ")");
    return id;
  }

  void serve_worker(Socket& socket, std::uint64_t id) {
    Frame frame;
    while (socket.recv_frame(frame)) {
      switch (frame.type) {
        case FrameType::kLeaseRequest: {
          if (!grant_lease(socket, id)) return;  // SHUTDOWN sent
          break;
        }
        case FrameType::kJobResult: {
          merge_result(decode_job_result(frame.payload), id);
          break;
        }
        case FrameType::kShardDone: {
          WireReader reader(frame.payload);
          const std::uint64_t shard = reader.u64();
          if (shard < lease->stats().shards_total) {
            lease->complete(static_cast<std::size_t>(shard));
          }
          break;
        }
        case FrameType::kGraphRequest: {
          serve_graph_range(socket, decode_graph_request(frame.payload));
          break;
        }
        case FrameType::kError: {
          fail("worker " + std::to_string(id) + ": " + frame.payload);
          return;
        }
        default:
          throw ProtocolError(std::string("unexpected frame ") +
                              frame_type_name(frame.type));
      }
    }
  }

  /// Streams one byte range of a plan-referenced graph file back to the
  /// worker. Paths outside the plan's allow-set (and unreadable files)
  /// terminate the connection — a correct worker only asks for what the
  /// shipped spec names.
  void serve_graph_range(Socket& socket, const GraphRequestMsg& request) {
    if (graph_files.find(request.path) == graph_files.end()) {
      const std::string reason =
          "graph file '" + request.path + "' is not referenced by the plan";
      socket.send_frame(FrameType::kError, reason);
      throw ProtocolError(reason);
    }
    std::ifstream in(request.path, std::ios::binary);
    if (!in) {
      const std::string reason =
          "cannot open graph file '" + request.path + "'";
      socket.send_frame(FrameType::kError, reason);
      throw ProtocolError(reason);
    }
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    GraphDataMsg reply;
    reply.file_size = file_size;
    // Leave frame headroom for the codec's own fields.
    const std::uint64_t cap = std::min<std::uint64_t>(
        request.max_bytes, kMaxFramePayload - 64);
    if (request.offset < file_size && cap > 0) {
      const std::uint64_t len =
          std::min<std::uint64_t>(cap, file_size - request.offset);
      reply.bytes.resize(len);
      in.seekg(static_cast<std::streamoff>(request.offset));
      if (!in.read(reply.bytes.data(),
                   static_cast<std::streamsize>(len))) {
        const std::string reason =
            "short read from graph file '" + request.path + "'";
        socket.send_frame(FrameType::kError, reason);
        throw ProtocolError(reason);
      }
    }
    socket.send_frame(FrameType::kGraphData, encode_graph_data(reply));
  }

  /// Leases the next shard to the worker; filters out jobs that were
  /// merged since the shard was built (a requeued shard may be partially
  /// done — no point re-running frames the journal already holds). Returns
  /// false once SHUTDOWN was sent.
  bool grant_lease(Socket& socket, std::uint64_t id) {
    while (true) {
      const std::optional<std::size_t> shard = lease->acquire(id);
      if (!shard.has_value()) {
        // All done, or aborted. On a job-error abort the waiting workers
        // get the reason, not a success-shaped SHUTDOWN.
        std::string error;
        {
          std::lock_guard lock(mutex);
          if (errored) error = first_error;
        }
        if (!error.empty()) {
          socket.send_frame(FrameType::kError, error);
        } else {
          socket.send_frame(FrameType::kShutdown, "");
        }
        return false;
      }
      LeaseGrantMsg grant;
      grant.shard = *shard;
      {
        std::lock_guard lock(mutex);
        for (const std::size_t job : lease->jobs(*shard)) {
          if (!results[job].has_value()) grant.jobs.push_back(job);
        }
      }
      if (grant.jobs.empty()) {
        lease->complete(*shard);
        continue;
      }
      socket.send_frame(FrameType::kLeaseGrant, encode_lease_grant(grant));
      log_line("shard " + std::to_string(*shard) + " (" +
               std::to_string(grant.jobs.size()) + " job(s)) -> worker " +
               std::to_string(id));
      return true;
    }
  }

  void merge_result(const JobResultMsg& msg, std::uint64_t id) {
    if (msg.job >= total || msg.shard >= lease->stats().shards_total) {
      throw ProtocolError("result for out-of-range job " +
                          std::to_string(msg.job) + " / shard " +
                          std::to_string(msg.shard));
    }
    JobResult parsed;
    if (!scenario::parse_job_result(msg.payload, parsed)) {
      fail("worker " + std::to_string(id) + ": unparseable result frame " +
           "for job " + std::to_string(msg.job));
      return;
    }
    lease->renew(static_cast<std::size_t>(msg.shard), id);
    std::lock_guard lock(mutex);
    const auto index = static_cast<std::size_t>(msg.job);
    // The idempotency point: first frame per job index wins, every later
    // copy (requeued shard, straggler racing its replacement) is dropped —
    // results are deterministic, so copies are identical anyway.
    const bool fresh =
        journal ? journal->merge(index, parsed) : !results[index].has_value();
    if (!fresh) {
      ++duplicates;
      return;
    }
    results[index] = std::move(parsed);
    ++merged;
    if (campaign_done()) done_cv.notify_all();
  }

  void fail(const std::string& message) {
    {
      std::lock_guard lock(mutex);
      if (!errored) {
        errored = true;
        first_error = message;
      }
    }
    lease->abort();
    done_cv.notify_all();
  }

  void broadcast_shutdown() {
    std::lock_guard lock(mutex);
    for (const int fd : active_fds) ::shutdown(fd, SHUT_RDWR);
  }

  void join_threads() {
    // Shut down (unblocks accept), join, and only then close: closing
    // while the accept thread may still read the fd races on it and could
    // accept on a reused descriptor.
    listener.shutdown();
    if (accept_thread.joinable()) accept_thread.join();
    listener.close();
    // A handler can be parked in lease->acquire() even though every job is
    // merged (its peer died after streaming results but before SHARD_DONE,
    // leaving the shard leased) — abort the table so every acquire returns
    // before we join.
    lease->abort();
    // Graceful drain: a handler exits right after answering its worker's
    // next LEASE_REQUEST with SHUTDOWN (or on the worker's EOF) — tearing
    // the sockets down immediately would instead kill workers mid-recv
    // that are owed that frame. Force only the stragglers (a peer that
    // never sends again) after a grace window.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    {
      std::unique_lock lock(mutex);
      while (!active_fds.empty() &&
             std::chrono::steady_clock::now() < deadline) {
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        lock.lock();
      }
    }
    broadcast_shutdown();
    // Handlers registered after the broadcast see the aborted lease table
    // and exit on their own; the vector is stable once accept has joined.
    std::vector<std::thread> to_join;
    {
      std::lock_guard lock(mutex);
      to_join.swap(handlers);
    }
    for (std::thread& t : to_join) t.join();
  }
};

Coordinator::Coordinator(CampaignPlan plan, std::string spec_text,
                         CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(std::move(plan), std::move(spec_text),
                                   std::move(options))) {}

Coordinator::~Coordinator() {
  if (impl_ != nullptr) {
    stop();
    impl_->join_threads();
  }
}

std::uint16_t Coordinator::port() const noexcept {
  return impl_->listener.port();
}

void Coordinator::stop() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->lease->abort();
  impl_->done_cv.notify_all();
}

CoordinatorResult Coordinator::serve() {
  Impl& impl = *impl_;
  Stopwatch watch;

  impl.accept_thread = std::thread([&impl] {
    while (true) {
      Socket socket = impl.listener.accept_connection();
      if (!socket.valid()) return;
      std::lock_guard lock(impl.mutex);
      if (impl.stopping) return;
      impl.handlers.emplace_back(
          [&impl, s = std::move(socket)]() mutable {
            impl.handle_connection(std::move(s));
          });
    }
  });

  // Live status: the standard progress snapshot with the fabric's lease /
  // worker counters folded into a "dist" section of status.json.
  std::unique_ptr<obs::ProgressReporter> reporter;
  if (!impl.options.status_path.empty() ||
      impl.options.heartbeat != nullptr) {
    obs::ProgressReporter::Options reporter_options;
    reporter_options.interval_seconds = impl.options.progress_interval;
    reporter_options.status_path = impl.options.status_path;
    reporter_options.heartbeat = impl.options.heartbeat;
    reporter = std::make_unique<obs::ProgressReporter>(
        reporter_options, [&impl, &watch] {
          obs::ProgressSnapshot s;
          s.campaign = impl.plan.name;
          s.jobs_total = impl.total;
          s.elapsed_seconds = watch.seconds();
          s.peak_rss_bytes = obs::peak_rss_bytes();
          const LeaseTable::Stats lease_stats = impl.lease->stats();
          std::lock_guard lock(impl.mutex);
          s.jobs_done = impl.resumed + impl.merged;
          s.jobs_resumed = impl.resumed;
          s.dist.active = true;
          s.dist.workers = impl.workers_connected;
          s.dist.shards_total = lease_stats.shards_total;
          s.dist.shards_pending = lease_stats.pending;
          s.dist.shards_leased = lease_stats.leased;
          s.dist.shards_done = lease_stats.done;
          s.dist.requeues = lease_stats.requeues;
          s.dist.results_merged = impl.merged;
          s.dist.duplicates = impl.duplicates;
          return s;
        });
  }

  // Wait for completion, sweeping stale leases on every poll tick — the
  // repair path for workers that are alive but wedged (dead ones requeue
  // instantly via their closed socket).
  const auto poll = std::chrono::duration<double>(
      std::clamp(impl.options.lease_timeout_seconds / 4.0, 0.05, 0.5));
  {
    std::unique_lock lock(impl.mutex);
    while (!impl.campaign_done() && !impl.errored && !impl.stopping) {
      impl.done_cv.wait_for(lock, poll);
      lock.unlock();
      const std::size_t swept = impl.lease->requeue_expired();
      if (swept > 0) {
        impl.log_line("lease timeout: requeued " + std::to_string(swept) +
                      " shard(s)");
      }
      lock.lock();
    }
  }

  if (reporter != nullptr) reporter->stop();
  impl.join_threads();

  CoordinatorResult result;
  {
    std::lock_guard lock(impl.mutex);
    result.resumed = impl.resumed;
    result.merged = impl.merged;
    result.duplicates = impl.duplicates;
    result.workers_served = impl.workers_served;
    result.complete = impl.campaign_done() && !impl.errored;
    if (impl.errored) throw SpecError(impl.first_error);
  }
  result.requeues = impl.lease->stats().requeues;

  if (impl.journal) impl.journal->close();
  if (result.complete && !impl.stem.empty()) {
    scenario::write_campaign_sinks(impl.plan, impl.results, impl.stem);
  }
  return result;
}

}  // namespace cobra::dist
