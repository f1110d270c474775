#ifndef BBF_APPS_NET_SERVER_H_
#define BBF_APPS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/net/blocklist.h"
#include "apps/net/wire.h"
#include "core/sharded_filter.h"
#include "obs/metrics.h"

namespace bbf::net {

/// Tuning and robustness knobs for Server. Defaults are sized for tests
/// and demos; production deployments raise the budgets and timeouts.
struct ServerConfig {
  /// Event-loop threads. Each runs its own epoll instance and (when
  /// listening) its own SO_REUSEPORT listening socket, so accepted
  /// connections are kernel-balanced across loops and a connection lives
  /// its whole life on one thread — shared-nothing connection state, no
  /// cross-thread handoff on the data path.
  int num_threads = 2;

  /// Per-connection in-flight byte budget: unflushed response bytes a
  /// connection may hold. A request arriving over budget is answered
  /// with an explicit kBusy NACK (not processed, not acked) and the
  /// connection stops being read until its responses drain — TCP
  /// backpressure does the rest.
  size_t conn_inflight_budget = size_t{1} << 20;

  /// Global in-flight byte budget across all connections and threads.
  size_t global_inflight_budget = size_t{8} << 20;

  /// A connection with no traffic at all for this long is evicted.
  int idle_timeout_ms = 30'000;

  /// A connection mid-frame (slow-loris: header or payload started but
  /// never finished) or with pending output must make progress this
  /// often, or it is evicted.
  int io_deadline_ms = 5'000;

  /// Hard cap on simultaneously open connections (across all threads);
  /// accepts beyond it are closed immediately.
  size_t max_connections = 4096;

  /// When non-empty, a graceful drain finishes by writing the filter's
  /// framed snapshot (Filter::Save; LoadFilterSnapshot reads it back) to
  /// this path.
  std::string drain_snapshot_path;
};

/// Connection- and frame-lifecycle counters (DESIGN.md §14), exported
/// through the obs layer like every other subsystem: Snapshot() renders
/// a MetricsSnapshot for obs::MetricsRegistry, so one scrape page shows
/// filter internals and serving health side by side.
struct ServerMetrics {
  obs::PaddedCounter accepted;            // Connections admitted.
  obs::PaddedCounter closed;              // Connections closed (any cause).
  obs::PaddedCounter evicted_idle;        // Closed by idle timeout.
  obs::PaddedCounter evicted_deadline;    // Closed by io deadline.
  obs::PaddedCounter frames_served;       // Requests fully processed.
  obs::PaddedCounter nacked_busy;         // Requests NACKed by budgets.
  obs::PaddedCounter malformed_rejected;  // Frames failing validation.
  obs::PaddedCounter drained_inflight;    // Frames completed during drain.
  obs::PaddedCounter keys_looked_up;
  obs::PaddedCounter keys_inserted;       // Accepted or expanded.
  obs::PaddedCounter keys_insert_nacked;  // Per-key kRejectedFull NACKs.
  obs::PaddedCounter http_scrapes;        // Plain-HTTP metrics fetches.
  obs::PaddedCounter tuner_ctl;           // kTunerCtl frames handled.

  obs::MetricsSnapshot Snapshot() const;
};

/// Filter-as-a-service (DESIGN.md §14): a thread-per-core epoll front end
/// that carries the wire protocol's batched lookup/insert/erase frames
/// straight into ShardedFilter::ContainsMany / InsertManyWithStatus /
/// EraseMany, and optionally fronts a Blocklist (kBlockCheck /
/// kReportFalseBlock) and a Prometheus text endpoint — both over the
/// binary protocol (kMetrics) and as a plain "GET ..." HTTP scrape on the
/// same port.
///
/// Robustness contract (enforced by tests/net_test.cc's fault sweep):
///  - a hostile or flaky peer can never crash the loop or corrupt filter
///    state: every frame is validated parse-into-locals-then-commit, and
///    hostile length fields are rejected before any buffering;
///  - an acked insert is never dropped: a key's response byte says
///    exactly what InsertWithStatus reported, and kReject saturation
///    surfaces as a per-key NACK, not a silent miss;
///  - slow-loris and stalled peers are evicted on deadlines; over-budget
///    peers get explicit kBusy NACKs;
///  - graceful drain (RequestDrain / SIGTERM via InstallDrainOnSignal)
///    stops accepting, finishes every fully received request, flushes
///    write buffers, then optionally snapshots the filter.
///
/// The filter itself is shared (it is internally locked per shard);
/// "shared-nothing" refers to connection state, which never leaves its
/// owning thread.
class Server {
 public:
  explicit Server(ShardedFilter* filter, ServerConfig config = {});
  ~Server();  // Hard-stops the loops if Shutdown was not called.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Mounts a yes/no-list backend for kBlockCheck/kReportFalseBlock.
  /// Call before Start; the blocklist must outlive the server. Blocklist
  /// implementations are not internally locked, so frames touching it
  /// are serialized across threads by an internal mutex.
  void set_blocklist(Blocklist* blocklist) { blocklist_ = blocklist; }

  /// Source of the kMetrics / HTTP scrape text. Defaults to rendering
  /// this server's own ServerMetrics; point it at an
  /// obs::MetricsRegistry render to serve the whole process's page.
  /// Call before Start. Must be thread-safe.
  void set_metrics_text_provider(std::function<std::string()> provider) {
    metrics_text_ = std::move(provider);
  }

  /// Mounts the auto-tuner's control surface for kTunerCtl frames —
  /// typically tuning::Tuner::WireControl(). Wired as a function so
  /// apps/net never links against bbf_tuning. Call before Start; the
  /// function must be thread-safe (WireControl's is). Without it,
  /// kTunerCtl answers kUnsupported.
  void set_tuner_control(std::function<std::string(uint8_t)> control) {
    tuner_control_ = std::move(control);
  }

  /// Binds one SO_REUSEPORT listening socket per thread on 127.0.0.1.
  /// `port` 0 picks an ephemeral port, readable via port() afterwards.
  bool Listen(uint16_t port = 0);
  uint16_t port() const { return port_; }

  /// Hands an already-connected socket (socketpair end, accepted fd) to
  /// one of the loops, round-robin. Usable before or after Start.
  void AdoptConnection(int fd);

  /// Spawns the event-loop threads. Returns false if already running.
  bool Start();

  /// Begins a graceful drain: stop accepting, finish every fully
  /// received request, flush, close. Safe from any thread and from
  /// signal handlers (it only stores a flag the loops poll).
  void RequestDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Installs a `signo` (default SIGTERM) handler that calls
  /// RequestDrain on this server. Async-signal-safe by construction.
  void InstallDrainOnSignal(int signo);

  /// RequestDrain + join all loops + optional drain snapshot. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  const ServerMetrics& metrics() const { return metrics_; }
  obs::MetricsSnapshot MetricsSnap() const { return metrics_.Snapshot(); }

 private:
  struct Worker;
  friend struct Worker;

  std::string MetricsText() const;
  bool WriteDrainSnapshot() const;

  ShardedFilter* filter_;
  Blocklist* blocklist_ = nullptr;
  ServerConfig config_;
  std::function<std::string()> metrics_text_;
  std::function<std::string(uint8_t)> tuner_control_;
  ServerMetrics metrics_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_now_{false};
  std::atomic<bool> running_{false};
  bool joined_ = false;
  std::atomic<size_t> global_pending_{0};  // Unflushed response bytes.
  std::atomic<size_t> open_connections_{0};
  std::atomic<size_t> adopt_rr_{0};
  std::mutex blocklist_mu_;
  uint16_t port_ = 0;
};

}  // namespace bbf::net

#endif  // BBF_APPS_NET_SERVER_H_
