#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/trace.h"

namespace hcd::server {
namespace {

Status IoError(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Process-unique nonzero trace ids: a per-process random-ish base (clock
/// entropy mixed through a 64-bit finalizer) plus an odd stride, so
/// concurrent clients in one process never collide and two processes are
/// overwhelmingly unlikely to.
uint64_t NextTraceId() {
  static const uint64_t base = [] {
    uint64_t seed = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    seed ^= static_cast<uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count())
            << 17;
    // splitmix64 finalizer: spreads the clock bits over the whole word.
    seed += 0x9e3779b97f4a7c15ull;
    seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9ull;
    seed = (seed ^ (seed >> 27)) * 0x94d049bb133111ebull;
    return seed ^ (seed >> 31);
  }();
  static std::atomic<uint64_t> next{0};
  const uint64_t id =
      base + next.fetch_add(1, std::memory_order_relaxed) * 0x10001ull;
  return id == 0 ? 1 : id;
}

}  // namespace

QueryClient::~QueryClient() { Close(); }

void QueryClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inflight_.clear();  // unanswered sends never get spans after a reconnect
}

Status QueryClient::Connect(const std::string& host, uint16_t port,
                            double timeout_seconds) {
  Close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return IoError("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      // Requests are small frames, often pipelined: send each at once.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Status::Ok();
    }
    const int error = errno;
    Close();
    // The server may still be binding its port: refused connections are
    // retried until the deadline so callers need no readiness sleep.
    if ((error != ECONNREFUSED && error != ECONNRESET) ||
        std::chrono::steady_clock::now() >= deadline) {
      errno = error;
      return IoError("connect");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status QueryClient::WriteFrame(std::string_view payload) {
  if (fd_ < 0) return Status::Internal("client not connected");
  std::string out;
  out.reserve(4 + payload.size());
  AppendFrame(&out, payload);
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t w =
        ::send(fd_, out.data() + done, out.size() - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return IoError("send");
    }
    done += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status QueryClient::ReadFrame(std::string* payload) {
  if (fd_ < 0) return Status::Internal("client not connected");
  char prefix[4];
  size_t done = 0;
  while (done < sizeof(prefix)) {
    const ssize_t r = ::recv(fd_, prefix + done, sizeof(prefix) - done, 0);
    if (r == 0) return Status::IoError("server closed the connection");
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoError("recv");
    }
    done += static_cast<size_t>(r);
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (length > kMaxPayloadBytes) {
    return Status::Corruption("oversized response frame");
  }
  payload->resize(length);
  done = 0;
  while (done < length) {
    const ssize_t r = ::recv(fd_, payload->data() + done, length - done, 0);
    if (r == 0) return Status::IoError("server closed mid-frame");
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoError("recv");
    }
    done += static_cast<size_t>(r);
  }
  return Status::Ok();
}

Status QueryClient::SendQuery(const QueryRequest& request) {
  Tracer* tracer = Tracer::Current();
  if (tracer == nullptr) return WriteFrame(EncodeQueryRequest(request));
  // Traced path: propagate (or mint) the request's trace id and remember
  // the send stamp so the matching ReadQueryResponse can record the span.
  QueryRequest traced = request;
  if (traced.trace_id == 0) {
    traced.trace_id = NextTraceId();
    traced.sampled = true;
  }
  const Status status = WriteFrame(EncodeQueryRequest(traced));
  if (status.ok()) {
    inflight_.push_back({traced.trace_id, traced.sampled, tracer->NowNs()});
  }
  return status;
}

Status QueryClient::ReadQueryResponse(QueryResponse* response) {
  std::string payload;
  if (Status status = ReadFrame(&payload); !status.ok()) return status;
  if (!DecodeQueryResponse(payload, response)) {
    return Status::Corruption("malformed query response");
  }
  if (!inflight_.empty()) {
    // Answers arrive in send order, so the oldest in-flight stamp is this
    // response's request.
    const InflightRequest sent = inflight_.front();
    inflight_.pop_front();
    if (Tracer* tracer = Tracer::Current()) {
      TraceSpan span;
      span.name = "client.query";
      span.ts_ns = sent.sent_ns;
      const uint64_t now = tracer->NowNs();
      span.dur_ns = now > sent.sent_ns ? now - sent.sent_ns : 0;
      span.args.push_back({"trace_id", 0, TraceIdHex(sent.trace_id), true});
      span.args.push_back(
          {"sampled", sent.sampled ? uint64_t{1} : uint64_t{0}, "", false});
      span.args.push_back({"status",
                           static_cast<uint64_t>(response->status), "",
                           false});
      span.args.push_back(
          {"cache_hit", response->cache_hit ? uint64_t{1} : uint64_t{0}, "",
           false});
      tracer->RecordSpan(std::move(span));
    }
  }
  return Status::Ok();
}

Status QueryClient::Query(const QueryRequest& request,
                          QueryResponse* response) {
  if (Status status = SendQuery(request); !status.ok()) return status;
  return ReadQueryResponse(response);
}

Status QueryClient::FetchMetrics(std::string* text) {
  if (Status status = WriteFrame(EncodeMetricsRequest()); !status.ok()) {
    return status;
  }
  std::string payload;
  if (Status status = ReadFrame(&payload); !status.ok()) return status;
  ResponseStatus response_status = ResponseStatus::kOk;
  if (!DecodeMetricsResponse(payload, &response_status, text)) {
    return Status::Corruption("malformed metrics response");
  }
  if (response_status != ResponseStatus::kOk) {
    return Status::Internal("server refused the metrics request");
  }
  return Status::Ok();
}

Status QueryClient::FetchStats(std::string* json) {
  if (Status status = WriteFrame(EncodeStatsRequest()); !status.ok()) {
    return status;
  }
  std::string payload;
  if (Status status = ReadFrame(&payload); !status.ok()) return status;
  ResponseStatus response_status = ResponseStatus::kOk;
  if (!DecodeMetricsResponse(payload, &response_status, json)) {
    return Status::Corruption("malformed stats response");
  }
  if (response_status != ResponseStatus::kOk) {
    return Status::Internal("server refused the stats request");
  }
  return Status::Ok();
}

}  // namespace hcd::server
