#include "net/block_sender.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>

#include "common/errno_util.hpp"
#include "common/thread_safety.hpp"
#include "sys/topology.hpp"

namespace nmo::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Numeric-host TCP connect bounded by `timeout_ms` (nonblocking connect +
/// poll + SO_ERROR).  Returns the connected fd (left nonblocking) or -1
/// with *error.
int connect_with_timeout(const std::string& host, std::uint16_t port,
                         std::uint32_t timeout_ms, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return -1;
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string node = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
    // Not a numeric address: resolve it (collector hostnames in a fleet).
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (getaddrinfo(node.c_str(), nullptr, &hints, &found) != 0 || found == nullptr) {
      return fail("cannot resolve collector host " + host);
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
    freeaddrinfo(found);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket: " + errno_message(errno));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return fail("connect: " + errno_message(errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      return fail(ready == 0 ? "connect timed out" : "poll: " + errno_message(errno));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 || so_error != 0) {
      ::close(fd);
      return fail("connect: " + errno_message(so_error != 0 ? so_error : errno));
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

std::string_view to_string(StreamConfig::Backpressure policy) noexcept {
  switch (policy) {
    case StreamConfig::Backpressure::kBlock:
      return "block";
    case StreamConfig::Backpressure::kDropOldest:
      return "drop-oldest";
  }
  return "?";
}

struct BlockSender::Impl {
  explicit Impl(const StreamConfig& stream_config) : config(stream_config) {}

  struct Item {
    bool is_block = false;
    std::vector<std::byte> frame;  ///< Complete frame: header + payload.
  };

  const StreamConfig& config;
  int fd = -1;
  std::thread worker;

  mutable core::Mutex mutex{"BlockSender"};
  core::CondVar space_cv;  ///< Ring space freed (kBlock producers).
  core::CondVar work_cv;   ///< Work queued / drain progressed / stop.
  std::deque<Item> queue NMO_GUARDED_BY(mutex);
  std::size_t blocks_queued NMO_GUARDED_BY(mutex) = 0;
  /// Worker must exit once the queue is drained.
  bool stop NMO_GUARDED_BY(mutex) = false;
  /// Worker must exit immediately, dropping the queue.
  bool abandoned NMO_GUARDED_BY(mutex) = false;
  /// Worker is mid-frame (drain must wait for it).
  bool writing NMO_GUARDED_BY(mutex) = false;
  StreamStats stats NMO_GUARDED_BY(mutex);
  std::atomic<std::uint64_t> progress{0};

  void fail_locked(std::string message) NMO_REQUIRES(mutex) {
    if (!stats.failed) {
      stats.failed = true;
      stats.error = std::move(message);
    }
    // A failed stream never blocks the capture path again: drop the
    // backlog and release any producer waiting for ring space.
    queue.clear();
    blocks_queued = 0;
    space_cv.notify_all();
    work_cv.notify_all();
  }

  /// Writes one whole frame with nonblocking send + poll.  Returns false
  /// on connection failure (recorded under the lock by the caller).
  bool write_frame(const std::vector<std::byte>& frame, std::string& error) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
        const core::MutexLock lock(mutex);
        if (abandoned) {
          error = "stream aborted";
          return false;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      error = "send: " + errno_message(n < 0 ? errno : EPIPE);
      return false;
    }
    return true;
  }

  void run() {
    const auto heartbeat_interval = std::chrono::milliseconds(config.heartbeat_interval_ms);
    auto next_heartbeat = Clock::now() + heartbeat_interval;
    std::uint64_t heartbeats_sent = 0;
    for (;;) {
      Item item;
      bool have_item = false;
      bool send_heartbeat = false;
      {
        core::MutexLock lock(mutex);
        for (;;) {
          if (abandoned || stats.failed) return;
          if (!queue.empty()) {
            item = std::move(queue.front());
            queue.pop_front();
            if (item.is_block) {
              --blocks_queued;
              space_cv.notify_one();
            }
            have_item = true;
            writing = true;
            break;
          }
          if (stop) return;  // drained: finish() owns the close
          if (config.heartbeat_interval_ms == 0) {
            work_cv.wait(lock);
            continue;
          }
          if (Clock::now() >= next_heartbeat) {
            send_heartbeat = true;
            writing = true;
            break;
          }
          work_cv.wait_until(lock, next_heartbeat);
        }
      }
      std::vector<std::byte> heartbeat_frame;
      if (send_heartbeat) {
        append_frame(heartbeat_frame, FrameType::kHeartbeat,
                     encode_heartbeat(progress.load(std::memory_order_relaxed)));
      }
      const std::vector<std::byte>& frame = have_item ? item.frame : heartbeat_frame;
      std::string error;
      const bool sent = write_frame(frame, error);
      {
        const core::MutexLock lock(mutex);
        writing = false;
        if (!sent) {
          fail_locked(std::move(error));
          return;
        }
        stats.frames_sent += 1;
        stats.bytes_sent += frame.size();
        if (have_item && item.is_block) stats.blocks_sent += 1;
        if (send_heartbeat) {
          stats.heartbeats = ++heartbeats_sent;
          next_heartbeat = Clock::now() + heartbeat_interval;
        } else {
          next_heartbeat = Clock::now() + heartbeat_interval;
        }
        work_cv.notify_all();  // finish() waits on queue-empty + !writing
      }
    }
  }
};

BlockSender::BlockSender(StreamConfig config)
    : config_(std::move(config)), impl_(std::make_unique<Impl>(config_)) {}

BlockSender::~BlockSender() { abort(); }

bool BlockSender::connect(const Hello& hello, std::string* error) {
  if (impl_->fd >= 0) return true;
  const int fd =
      connect_with_timeout(config_.host, config_.port, config_.connect_timeout_ms, error);
  if (fd < 0) return false;
  if (config_.send_buffer_bytes > 0) {
    const int size = static_cast<int>(config_.send_buffer_bytes);
    if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size)) != 0) {
      // Non-fatal: the stream works with the kernel's default buffer, just
      // with less slack under bursts.  Surface the refusal in the sender's
      // error state (failed stays false; a real failure later overwrites).
      const core::MutexLock lock(impl_->mutex);
      if (impl_->stats.error.empty()) {
        impl_->stats.error = "setsockopt(SO_SNDBUF): " + errno_message(errno);
      }
    }
  }
  impl_->fd = fd;
  {
    const core::MutexLock lock(impl_->mutex);
    impl_->stats.connected = true;
    Impl::Item item;
    append_frame(item.frame, FrameType::kHello, encode_hello(hello));
    impl_->queue.push_back(std::move(item));
  }
  impl_->worker = sys::named_thread("nmo-send", [this] { impl_->run(); });
  return true;
}

bool BlockSender::send_block(std::span<const std::byte> block_bytes) {
  core::MutexLock lock(impl_->mutex);
  if (impl_->fd < 0 || impl_->stats.failed || impl_->stop || impl_->abandoned) return false;
  if (impl_->blocks_queued >= config_.ring_capacity) {
    if (config_.policy == StreamConfig::Backpressure::kBlock) {
      impl_->space_cv.wait(lock, [&]() NMO_REQUIRES(impl_->mutex) {
        return impl_->blocks_queued < config_.ring_capacity || impl_->stats.failed ||
               impl_->abandoned;
      });
      if (impl_->stats.failed || impl_->abandoned) return false;
    } else {
      // Evict the oldest queued *block* (control frames are sacred).
      for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
        if (it->is_block) {
          impl_->queue.erase(it);
          --impl_->blocks_queued;
          impl_->stats.blocks_dropped += 1;
          break;
        }
      }
    }
  }
  Impl::Item item;
  item.is_block = true;
  append_frame(item.frame, FrameType::kBlock, block_bytes);
  impl_->queue.push_back(std::move(item));
  ++impl_->blocks_queued;
  impl_->stats.blocks_enqueued += 1;
  impl_->work_cv.notify_one();
  return true;
}

void BlockSender::send_control(FrameType type, std::vector<std::byte> payload) {
  const core::MutexLock lock(impl_->mutex);
  if (impl_->fd < 0 || impl_->stats.failed || impl_->stop || impl_->abandoned) return;
  Impl::Item item;
  append_frame(item.frame, type, payload);
  impl_->queue.push_back(std::move(item));
  impl_->work_cv.notify_one();
}

void BlockSender::set_progress(std::uint64_t samples_decoded) {
  impl_->progress.store(samples_decoded, std::memory_order_relaxed);
}

bool BlockSender::finish(const SessionEnd& end) {
  if (impl_->fd < 0) return false;
  {
    core::MutexLock lock(impl_->mutex);
    if (!impl_->stats.failed && !impl_->abandoned) {
      Impl::Item item;
      append_frame(item.frame, FrameType::kEnd, encode_session_end(end));
      impl_->queue.push_back(std::move(item));
    }
    impl_->stop = true;
    impl_->work_cv.notify_all();
    const auto deadline = Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
    const bool drained =
        impl_->work_cv.wait_until(lock, deadline, [&]() NMO_REQUIRES(impl_->mutex) {
          return (impl_->queue.empty() && !impl_->writing) || impl_->stats.failed ||
                 impl_->abandoned;
        });
    if (!drained) {
      impl_->fail_locked("stream drain timed out");
    }
  }
  abort();  // join + close (the queue is already drained or condemned)
  const core::MutexLock lock(impl_->mutex);
  return !impl_->stats.failed;
}

void BlockSender::abort() {
  {
    const core::MutexLock lock(impl_->mutex);
    if (impl_->fd < 0 && !impl_->worker.joinable()) return;
    // A drained finish() lands here with stop set and the queue empty -
    // then this is a plain join + close.  Anything else is a condemnation:
    // drop the backlog and make the worker exit mid-frame if need be.
    if (!impl_->stop || !impl_->queue.empty() || impl_->writing) {
      impl_->abandoned = true;
      impl_->queue.clear();
      impl_->blocks_queued = 0;
    }
    impl_->stop = true;
    impl_->space_cv.notify_all();
    impl_->work_cv.notify_all();
  }
  if (impl_->worker.joinable()) impl_->worker.join();
  if (impl_->fd >= 0) {
    ::close(impl_->fd);
    impl_->fd = -1;
  }
}

bool BlockSender::active() const {
  const core::MutexLock lock(impl_->mutex);
  return impl_->fd >= 0 && impl_->stats.connected && !impl_->stats.failed &&
         !impl_->abandoned;
}

StreamStats BlockSender::stats() const {
  const core::MutexLock lock(impl_->mutex);
  return impl_->stats;
}

// --- StreamingTraceSink ------------------------------------------------------

StreamingTraceSink::StreamingTraceSink(StreamConfig config, std::string session_name,
                                       store::TraceWriter::Options trace_options,
                                       std::uint64_t nonce)
    : name_(std::move(session_name)),
      options_(trace_options),
      nonce_(nonce),
      sender_(std::move(config)) {}

bool StreamingTraceSink::connect() {
  connect_attempted_ = true;
  Hello hello;
  hello.compress = options_.compress;
  hello.index_meta = options_.index_meta;
  hello.kind = kHelloKindSession;
  hello.nonce = nonce_;
  hello.name = name_;
  std::string error;
  return sender_.connect(hello, &error);
}

void StreamingTraceSink::attach(store::TraceWriter& writer) {
  if (!sender_.active()) return;
  writer.set_block_observer(
      [this](std::span<const std::byte> block_bytes, std::uint32_t, CoreId) {
        sender_.send_block(block_bytes);
      });
}

void StreamingTraceSink::note_progress(std::uint64_t samples_decoded) {
  sender_.set_progress(samples_decoded);
}

void StreamingTraceSink::send_regions(const std::vector<core::AddrRegion>& regions) {
  if (!sender_.active() || regions.size() <= regions_sent_) return;
  RegionDelta delta;
  delta.first = static_cast<std::uint32_t>(regions_sent_);
  delta.regions.assign(regions.begin() + static_cast<std::ptrdiff_t>(regions_sent_),
                       regions.end());
  sender_.send_control(FrameType::kRegions, encode_region_delta(delta));
  regions_sent_ = regions.size();
}

void StreamingTraceSink::send_scheduler_meta(const std::string& text) {
  if (!sender_.active()) return;
  std::vector<std::byte> payload(text.size());
  std::memcpy(payload.data(), text.data(), text.size());
  sender_.send_control(FrameType::kSchedMeta, std::move(payload));
}

bool StreamingTraceSink::finish(std::uint64_t samples, const std::string& fingerprint_hex,
                                bool clean) {
  if (!sender_.stats().connected) return false;
  SessionEnd end;
  end.samples = samples;
  end.clean = clean;
  if (!fingerprint_digest(fingerprint_hex, end.digest)) end.clean = false;
  return sender_.finish(end);
}

void StreamingTraceSink::abort() { sender_.abort(); }

bool stream_scheduler_meta(const StreamConfig& config, const std::string& text,
                           const std::string& name) {
  BlockSender sender(config);
  Hello hello;
  hello.kind = kHelloKindControl;
  hello.name = name;
  if (!sender.connect(hello)) return false;
  std::vector<std::byte> payload(text.size());
  if (!text.empty()) std::memcpy(payload.data(), text.data(), text.size());
  sender.send_control(FrameType::kSchedMeta, std::move(payload));
  SessionEnd end;
  end.clean = true;
  return sender.finish(end);
}

bool StreamingTraceSink::fallback() const {
  if (!connect_attempted_) return false;
  const auto s = sender_.stats();
  return !s.connected || s.failed;
}

}  // namespace nmo::net
