#include "net/collector.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/errno_util.hpp"
#include "common/thread_safety.hpp"
#include "core/trace.hpp"
#include "net/wire.hpp"
#include "store/region_file.hpp"
#include "store/session_store.hpp"
#include "store/trace_file.hpp"
#include "sys/topology.hpp"

namespace nmo::net {
namespace {

bool is_number(const std::string& text) {
  return !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
}

/// Fleet-merge rule for one scheduler.meta key: peaks take the max,
/// counters sum, anything non-numeric is last-wins (policy labels).
void merge_meta_value(std::map<std::string, std::string>& merged, const std::string& key,
                      const std::string& value) {
  auto it = merged.find(key);
  if (it == merged.end()) {
    merged[key] = value;
    return;
  }
  if (!is_number(value) || !is_number(it->second)) {
    it->second = value;
    return;
  }
  const std::uint64_t lhs = std::strtoull(it->second.c_str(), nullptr, 10);
  const std::uint64_t rhs = std::strtoull(value.c_str(), nullptr, 10);
  const bool take_max = key.size() > 4 && key.compare(key.size() - 4, 4, "_max") == 0;
  const bool is_peak = key.rfind("peak_", 0) == 0;
  it->second = std::to_string(take_max || is_peak ? std::max(lhs, rhs) : lhs + rhs);
}

/// key=value text -> ordered pairs (duplicates preserved in order so the
/// merge folds every occurrence).
std::vector<std::pair<std::string, std::string>> parse_meta_text(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    pairs.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return pairs;
}

}  // namespace

struct Collector::Impl {
  explicit Impl(CollectorConfig collector_config) : config(std::move(collector_config)) {}

  /// One sender's connection: parser + ingest state machine.
  struct Connection {
    int fd = -1;
    FrameParser parser;
    bool got_hello = false;
    Hello hello;
    // Session-stream ingest (hello kind 0):
    std::unique_ptr<store::TraceWriter> writer;
    store::SessionInfo info;
    std::vector<core::AddrRegion> regions;
    std::uint64_t blocks = 0;
    std::uint64_t progress = 0;  ///< Last heartbeat's decode progress.
    bool finalized = false;
    std::string error;  ///< First ingest/protocol error (terminal).
  };

  CollectorConfig config;
  int listen_fd = -1;
  int wake_fd[2] = {-1, -1};  ///< Self-pipe: stop() wakes the poll loop.
  std::uint16_t bound_port = 0;
  std::thread thread;
  std::unique_ptr<store::SessionStore> store;

  mutable core::Mutex mutex{"Collector"};
  core::CondVar done_cv;
  CollectorStats stats NMO_GUARDED_BY(mutex);
  std::map<std::string, std::string> merged_meta NMO_GUARDED_BY(mutex);
  std::uint64_t meta_senders NMO_GUARDED_BY(mutex) = 0;
  bool done NMO_GUARDED_BY(mutex) = false;  ///< `once` quota met.
  bool stopping NMO_GUARDED_BY(mutex) = false;

  void log(const Connection& conn, const char* what, const std::string& detail = "") {
    if (!config.verbose) return;
    std::fprintf(stderr, "nmo-traced: [%s#%llu] %s%s%s\n",
                 conn.got_hello ? conn.hello.name.c_str() : "?",
                 static_cast<unsigned long long>(conn.hello.nonce), what,
                 detail.empty() ? "" : ": ", detail.c_str());
  }

  /// Applies one frame to the connection's state machine.  Returns false
  /// when the connection must be closed (end frame or protocol error).
  bool handle_frame(Connection& conn, Frame& frame) {
    {
      const core::MutexLock lock(mutex);
      stats.frames += 1;
    }
    if (!conn.got_hello) {
      if (frame.type != FrameType::kHello) {
        conn.error = "first frame is not a hello";
        return false;
      }
      std::string error;
      if (!parse_hello(frame.payload, conn.hello, error)) {
        conn.error = error;
        return false;
      }
      if (conn.hello.trace_version != store::kTraceVersion2) {
        conn.error = "stream declares unsupported trace version " +
                     std::to_string(conn.hello.trace_version);
        return false;
      }
      conn.got_hello = true;
      if (conn.hello.kind == kHelloKindSession) {
        conn.info = store->create_session(conn.hello.name);
        store::TraceWriter::Options options;
        options.compress = conn.hello.compress;
        options.index_meta = conn.hello.index_meta;
        conn.writer = std::make_unique<store::TraceWriter>(conn.info.trace_path, options);
        if (!conn.writer->ok()) {
          conn.error = conn.writer->error();
          return false;
        }
        const core::MutexLock lock(mutex);
        stats.sessions_started += 1;
      }
      log(conn, conn.hello.kind == kHelloKindSession ? "session stream opened"
                                                     : "control stream opened");
      return true;
    }
    switch (frame.type) {
      case FrameType::kHello:
        conn.error = "duplicate hello";
        return false;
      case FrameType::kBlock: {
        if (!conn.writer) {
          conn.error = "block frame on a control stream";
          return false;
        }
        std::vector<core::TraceSample> samples;
        std::string error;
        if (!store::decode_v2_block(frame.payload, samples, &error)) {
          conn.error = "bad block: " + error;
          return false;
        }
        for (const auto& s : samples) conn.writer->add(s);
        if (!conn.writer->ok()) {
          conn.error = conn.writer->error();
          return false;
        }
        conn.blocks += 1;
        const core::MutexLock lock(mutex);
        stats.blocks += 1;
        stats.samples += samples.size();
        return true;
      }
      case FrameType::kRegions: {
        if (!conn.writer) {
          conn.error = "region frame on a control stream";
          return false;
        }
        RegionDelta delta;
        std::string error;
        if (!parse_region_delta(frame.payload, delta, error)) {
          conn.error = "bad region delta: " + error;
          return false;
        }
        if (delta.first != conn.regions.size()) {
          conn.error = "region delta gap: expected first index " +
                       std::to_string(conn.regions.size()) + ", got " +
                       std::to_string(delta.first);
          return false;
        }
        conn.regions.insert(conn.regions.end(), delta.regions.begin(), delta.regions.end());
        return true;
      }
      case FrameType::kSchedMeta: {
        std::string text(reinterpret_cast<const char*>(frame.payload.data()),
                         frame.payload.size());
        const core::MutexLock lock(mutex);
        stats.meta_snapshots += 1;
        meta_senders += 1;
        for (const auto& [key, value] : parse_meta_text(text)) {
          merge_meta_value(merged_meta, key, value);
        }
        return true;
      }
      case FrameType::kEnd: {
        SessionEnd end;
        std::string error;
        if (!parse_session_end(frame.payload, end, error)) {
          conn.error = "bad end frame: " + error;
          return false;
        }
        finalize(conn, &end);
        return false;  // stream complete; close the connection
      }
      case FrameType::kHeartbeat: {
        std::uint64_t progress = 0;
        std::string error;
        if (!parse_heartbeat(frame.payload, progress, error)) {
          conn.error = "bad heartbeat: " + error;
          return false;
        }
        conn.progress = progress;
        const core::MutexLock lock(mutex);
        stats.heartbeats += 1;
        return true;
      }
    }
    conn.error = "unreachable frame type";  // FrameParser validated the type
    return false;
  }

  /// Closes the ingest writer and persists the session artifacts.  `end`
  /// is the sender's declaration, or nullptr when the stream died first
  /// (the truncated path).  The written trace is verify-clean either way;
  /// stream_state records which way it ended.
  void finalize(Connection& conn, const SessionEnd* end) {
    if (conn.finalized || !conn.writer) {
      conn.finalized = true;
      return;
    }
    conn.finalized = true;
    const bool closed = conn.writer->close();
    const std::uint64_t samples = conn.writer->samples_written();
    const std::string fingerprint = conn.writer->fingerprint();

    std::string stream_state;
    std::string error = conn.error;
    if (!closed) {
      stream_state = "failed";
      if (error.empty()) error = conn.writer->error();
    } else if (end == nullptr) {
      stream_state = "truncated";
      if (error.empty()) error = "stream ended before its end frame";
    } else if (end->samples != samples ||
               fingerprint_hex(end->digest) != fingerprint) {
      // The sender declared more (or different) data than arrived - e.g.
      // a drop-oldest stream with evictions.  The artifact is still a
      // valid trace of what DID arrive.
      stream_state = end->clean && end->samples >= samples ? "partial" : "mismatch";
      error = "sender declared " + std::to_string(end->samples) + " samples / " +
              fingerprint_hex(end->digest) + ", ingested " + std::to_string(samples) +
              " / " + fingerprint;
    } else {
      stream_state = end->clean ? "clean" : "partial";
    }
    const bool clean = stream_state == "clean";

    std::string region_error;
    if (!conn.regions.empty() &&
        !store::write_region_file(store::region_path_for(conn.info.trace_path), conn.regions,
                                  &region_error)) {
      if (error.empty()) error = region_error;
    }

    std::ofstream meta(conn.info.dir + "/" + std::string(store::kSessionMetaFile),
                       std::ios::trunc);
    if (meta) {
      std::string safe_error = error;
      for (char& c : safe_error) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      meta << "id=" << conn.info.id << '\n';
      meta << "name=" << conn.info.name << '\n';
      meta << "state=" << (clean ? "done" : "failed") << '\n';
      meta << "samples=" << samples << '\n';
      meta << "fingerprint=" << fingerprint << '\n';
      meta << "error=" << safe_error << '\n';
      meta << "streamed=1\n";
      meta << "stream_state=" << stream_state << '\n';
      meta << "stream_nonce=" << conn.hello.nonce << '\n';
      meta << "stream_blocks=" << conn.blocks << '\n';
      meta << "stream_progress=" << conn.progress << '\n';
    }

    {
      const core::MutexLock lock(mutex);
      if (clean) {
        stats.sessions_clean += 1;
      } else if (stream_state == "truncated") {
        stats.sessions_truncated += 1;
      } else {
        stats.sessions_failed += 1;
      }
    }
    log(conn, "finalized", stream_state + ", " + std::to_string(samples) + " samples, " +
                               fingerprint);
  }

  /// Counts finalized session streams and checks the `once` quota.
  void check_done(const std::vector<std::unique_ptr<Connection>>& conns) {
    if (config.once == 0) return;
    const core::MutexLock lock(mutex);
    const std::uint64_t finalized =
        stats.sessions_clean + stats.sessions_truncated + stats.sessions_failed;
    if (finalized < config.once) return;
    for (const auto& conn : conns) {
      if (conn->writer && !conn->finalized) return;  // a stream is still open
    }
    if (!done) {
      done = true;
      done_cv.notify_all();
    }
  }

  void close_connection(std::vector<std::unique_ptr<Connection>>& conns, std::size_t i) {
    Connection& conn = *conns[i];
    if (!conn.error.empty()) {
      const core::MutexLock lock(mutex);
      stats.protocol_errors += 1;
    }
    if (!conn.finalized && conn.writer) {
      log(conn, "disconnected mid-stream", conn.error);
      finalize(conn, nullptr);
    } else if (!conn.error.empty()) {
      log(conn, "closed with error", conn.error);
    }
    ::close(conn.fd);
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void run() {
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<std::byte> buf(64 * 1024);
    for (;;) {
      {
        const core::MutexLock lock(mutex);
        if (stopping) break;
      }
      std::vector<pollfd> fds;
      fds.push_back({listen_fd, POLLIN, 0});
      fds.push_back({wake_fd[0], POLLIN, 0});
      for (const auto& conn : conns) fds.push_back({conn->fd, POLLIN, 0});
      // Connections accepted below are appended past this count and have
      // no pollfd this round; they are served next iteration.
      const std::size_t polled = conns.size();
      if (::poll(fds.data(), fds.size(), 1000) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if ((fds[1].revents & POLLIN) != 0) {
        char drain[64];
        while (::read(wake_fd[0], drain, sizeof(drain)) > 0) {
        }
      }
      if ((fds[0].revents & POLLIN) != 0) {
        for (;;) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd < 0) break;
          ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
          auto conn = std::make_unique<Connection>();
          conn->fd = fd;
          conns.push_back(std::move(conn));
          const core::MutexLock lock(mutex);
          stats.connections += 1;
        }
      }
      // Walk forward so frames merge in accept order even when several
      // connections turn readable in the same poll round - "last-wins"
      // metadata keys must follow arrival order, not iteration accident.
      // Closes are deferred: erasing mid-walk would shift the conn <->
      // pollfd index mapping.
      std::vector<std::size_t> closing;
      for (std::size_t i = 0; i < polled; ++i) {
        const auto& pfd = fds[2 + i];
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& conn = *conns[i];
        bool close_now = false;
        for (;;) {
          const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
          if (n > 0) {
            {
              const core::MutexLock lock(mutex);
              stats.bytes += static_cast<std::uint64_t>(n);
            }
            conn.parser.feed(buf.data(), static_cast<std::size_t>(n));
            Frame frame;
            FrameParser::Result result;
            while ((result = conn.parser.next(frame)) == FrameParser::Result::kFrame) {
              if (!handle_frame(conn, frame)) {
                close_now = true;
                break;
              }
            }
            if (result == FrameParser::Result::kError) {
              if (conn.error.empty()) conn.error = conn.parser.error();
              close_now = true;
            }
            if (close_now) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          close_now = true;  // peer closed (0) or hard error
          break;
        }
        if (close_now) closing.push_back(i);
      }
      for (std::size_t j = closing.size(); j-- > 0;) close_connection(conns, closing[j]);
      check_done(conns);
    }
    // Stopping: every still-open stream finalizes as truncated, so a
    // daemon shutdown never leaves an unverifiable partial trace behind.
    for (std::size_t i = conns.size(); i-- > 0;) close_connection(conns, i);
    write_root_meta();
  }

  /// Persists the fleet view: the merged scheduler.meta plus this
  /// collector's own ingest totals.
  void write_root_meta() {
    if (!store) return;
    CollectorStats snapshot;
    std::map<std::string, std::string> merged;
    std::uint64_t senders = 0;
    {
      const core::MutexLock lock(mutex);
      snapshot = stats;
      merged = merged_meta;
      senders = meta_senders;
    }
    if (!merged.empty()) {
      std::ofstream out(store->root() + "/" + std::string(store::kSchedulerMetaFile),
                        std::ios::trunc);
      if (out) {
        for (const auto& [key, value] : merged) out << key << '=' << value << '\n';
      }
    }
    std::ofstream out(store->root() + "/collector.meta", std::ios::trunc);
    if (!out) return;
    out << "connections=" << snapshot.connections << '\n';
    out << "sessions_started=" << snapshot.sessions_started << '\n';
    out << "sessions_clean=" << snapshot.sessions_clean << '\n';
    out << "sessions_truncated=" << snapshot.sessions_truncated << '\n';
    out << "sessions_failed=" << snapshot.sessions_failed << '\n';
    out << "blocks=" << snapshot.blocks << '\n';
    out << "samples=" << snapshot.samples << '\n';
    out << "frames=" << snapshot.frames << '\n';
    out << "bytes=" << snapshot.bytes << '\n';
    out << "heartbeats=" << snapshot.heartbeats << '\n';
    out << "meta_snapshots=" << snapshot.meta_snapshots << '\n';
    out << "meta_senders=" << senders << '\n';
    out << "protocol_errors=" << snapshot.protocol_errors << '\n';
  }
};

Collector::Collector(CollectorConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}

Collector::~Collector() { stop(); }

bool Collector::start(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    if (impl_->listen_fd >= 0) {
      ::close(impl_->listen_fd);
      impl_->listen_fd = -1;
    }
    return false;
  };
  if (impl_->thread.joinable()) return true;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl_->config.port);
  const std::string& bind_host = impl_->config.bind;
  if (inet_pton(AF_INET, bind_host == "localhost" ? "127.0.0.1" : bind_host.c_str(),
                &addr.sin_addr) != 1) {
    return fail("bad bind address " + bind_host);
  }
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) return fail("socket: " + errno_message(errno));
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind: " + errno_message(errno));
  }
  if (::listen(impl_->listen_fd, 64) != 0) {
    return fail("listen: " + errno_message(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    impl_->bound_port = ntohs(bound.sin_port);
  }
  ::fcntl(impl_->listen_fd, F_SETFL, ::fcntl(impl_->listen_fd, F_GETFL, 0) | O_NONBLOCK);
  if (::pipe(impl_->wake_fd) != 0) return fail("pipe: " + errno_message(errno));
  ::fcntl(impl_->wake_fd[0], F_SETFL, ::fcntl(impl_->wake_fd[0], F_GETFL, 0) | O_NONBLOCK);
  impl_->store = std::make_unique<store::SessionStore>(impl_->config.root);
  {
    const core::MutexLock lock(impl_->mutex);
    impl_->stopping = false;
  }
  impl_->thread = sys::named_thread("nmo-coll", [this] { impl_->run(); });
  return true;
}

std::uint16_t Collector::port() const { return impl_->bound_port; }

bool Collector::wait_done(std::uint32_t timeout_ms) {
  core::MutexLock lock(impl_->mutex);
  if (impl_->config.once == 0) return impl_->done;
  const auto ready = [&]() NMO_REQUIRES(impl_->mutex) { return impl_->done || impl_->stopping; };
  if (timeout_ms == 0) {
    impl_->done_cv.wait(lock, ready);
  } else if (!impl_->done_cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
    return false;
  }
  return impl_->done;
}

void Collector::stop() {
  {
    const core::MutexLock lock(impl_->mutex);
    if (!impl_->thread.joinable()) return;
    impl_->stopping = true;
    impl_->done_cv.notify_all();
  }
  if (impl_->wake_fd[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(impl_->wake_fd[1], &byte, 1);
  }
  impl_->thread.join();
  for (int& fd : impl_->wake_fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
}

CollectorStats Collector::stats() const {
  const core::MutexLock lock(impl_->mutex);
  return impl_->stats;
}

const CollectorConfig& Collector::config() const { return impl_->config; }

}  // namespace nmo::net
