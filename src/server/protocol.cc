#include "server/protocol.h"

#include <algorithm>
#include <cstring>

namespace hcd::server {
namespace {

constexpr size_t kMetricCount = std::size(kAllMetrics);

void AppendU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian reader over one payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 8;
    *out = value;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  std::string_view Rest() const { return data_.substr(pos_); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

uint64_t DoubleBits(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string out;
  out.reserve(24 + 4 * request.vertices.size());
  AppendU8(&out, static_cast<uint8_t>(MessageType::kQuery));
  AppendU8(&out, static_cast<uint8_t>(request.metric));
  AppendU8(&out, static_cast<uint8_t>(request.hierarchy));
  AppendU32(&out, request.k);
  AppendU32(&out, request.max_return_vertices);
  AppendU32(&out, static_cast<uint32_t>(request.vertices.size()));
  for (const VertexId v : request.vertices) AppendU32(&out, v);
  if (request.trace_id != 0) {
    AppendU64(&out, request.trace_id);
    AppendU8(&out, request.sampled ? 1 : 0);
  }
  return out;
}

std::string EncodeMetricsRequest() {
  std::string out;
  AppendU8(&out, static_cast<uint8_t>(MessageType::kMetrics));
  return out;
}

std::string EncodeStatsRequest() {
  std::string out;
  AppendU8(&out, static_cast<uint8_t>(MessageType::kStats));
  return out;
}

std::string EncodeQueryResponse(const QueryResponse& response) {
  std::string out;
  out.reserve(35 + 4 * response.vertices.size());
  AppendU8(&out, static_cast<uint8_t>(response.status));
  if (response.status != ResponseStatus::kOk) return out;
  AppendU64(&out, response.epoch);
  AppendU8(&out, response.cache_hit ? 1 : 0);
  AppendU8(&out, response.found ? 1 : 0);
  AppendU32(&out, response.level);
  AppendU64(&out, response.core_size);
  AppendU64(&out, DoubleBits(response.score));
  AppendU32(&out, static_cast<uint32_t>(response.vertices.size()));
  for (const VertexId v : response.vertices) AppendU32(&out, v);
  return out;
}

std::string EncodeMetricsResponse(std::string_view prometheus_text) {
  std::string out;
  out.reserve(1 + prometheus_text.size());
  AppendU8(&out, static_cast<uint8_t>(ResponseStatus::kOk));
  out.append(prometheus_text);
  return out;
}

std::string EncodeStatusOnlyResponse(ResponseStatus status) {
  std::string out;
  AppendU8(&out, static_cast<uint8_t>(status));
  return out;
}

bool DecodeRequestType(std::string_view payload, MessageType* out) {
  if (payload.empty()) return false;
  const uint8_t type = static_cast<uint8_t>(payload[0]);
  if (type != static_cast<uint8_t>(MessageType::kQuery) &&
      type != static_cast<uint8_t>(MessageType::kMetrics) &&
      type != static_cast<uint8_t>(MessageType::kStats)) {
    return false;
  }
  *out = static_cast<MessageType>(type);
  return true;
}

bool DecodeQueryRequest(std::string_view payload, QueryRequest* out) {
  Reader reader(payload);
  uint8_t type = 0;
  uint8_t metric = 0;
  uint8_t hierarchy = 0;
  uint32_t num_vertices = 0;
  if (!reader.ReadU8(&type) ||
      type != static_cast<uint8_t>(MessageType::kQuery) ||
      !reader.ReadU8(&metric) || metric >= kMetricCount ||
      !reader.ReadU8(&hierarchy) || !IsValidHierarchyKind(hierarchy) ||
      !reader.ReadU32(&out->k) || !reader.ReadU32(&out->max_return_vertices) ||
      !reader.ReadU32(&num_vertices)) {
    return false;
  }
  // The length prefix already bounds the frame, so the count can lie at
  // most kMaxPayloadBytes/4 — but it must match the bytes actually sent:
  // exactly the vertex array (version 1), or the vertex array plus the
  // nine-byte trace context (version 2).
  const size_t vertex_bytes = size_t{num_vertices} * 4;
  const size_t rest = reader.Rest().size();
  if (rest != vertex_bytes && rest != vertex_bytes + 9) return false;
  out->metric = kAllMetrics[metric];
  out->hierarchy = static_cast<HierarchyKind>(hierarchy);
  out->vertices.resize(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) {
    if (!reader.ReadU32(&out->vertices[i])) return false;
  }
  out->trace_id = 0;
  out->sampled = false;
  if (!reader.AtEnd()) {
    uint8_t sampled = 0;
    if (!reader.ReadU64(&out->trace_id) || out->trace_id == 0 ||
        !reader.ReadU8(&sampled) || sampled > 1) {
      return false;
    }
    out->sampled = sampled != 0;
  }
  return reader.AtEnd();
}

bool DecodeQueryResponse(std::string_view payload, QueryResponse* out) {
  Reader reader(payload);
  uint8_t status = 0;
  if (!reader.ReadU8(&status) ||
      status > static_cast<uint8_t>(ResponseStatus::kBadRequest)) {
    return false;
  }
  out->status = static_cast<ResponseStatus>(status);
  if (out->status != ResponseStatus::kOk) return reader.AtEnd();
  uint8_t cache_hit = 0;
  uint8_t found = 0;
  uint64_t score_bits = 0;
  uint32_t num_vertices = 0;
  if (!reader.ReadU64(&out->epoch) || !reader.ReadU8(&cache_hit) ||
      !reader.ReadU8(&found) || !reader.ReadU32(&out->level) ||
      !reader.ReadU64(&out->core_size) || !reader.ReadU64(&score_bits) ||
      !reader.ReadU32(&num_vertices) || cache_hit > 1 || found > 1) {
    return false;
  }
  if (reader.Rest().size() != size_t{num_vertices} * 4) return false;
  out->cache_hit = cache_hit != 0;
  out->found = found != 0;
  out->score = DoubleFromBits(score_bits);
  out->vertices.resize(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) {
    if (!reader.ReadU32(&out->vertices[i])) return false;
  }
  return reader.AtEnd();
}

bool DecodeMetricsResponse(std::string_view payload, ResponseStatus* status,
                           std::string* text) {
  Reader reader(payload);
  uint8_t raw = 0;
  if (!reader.ReadU8(&raw) ||
      raw > static_cast<uint8_t>(ResponseStatus::kBadRequest)) {
    return false;
  }
  *status = static_cast<ResponseStatus>(raw);
  text->assign(reader.Rest());
  return true;
}

void AppendFrame(std::string* out, std::string_view payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

std::string CacheKeyFor(const QueryRequest& request) {
  std::vector<VertexId> sorted(request.vertices);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key;
  key.reserve(6 + 4 * sorted.size());
  // Truss and nucleus answers are densest communities whatever the metric,
  // and a response does not echo it, so only core keys carry the metric.
  AppendU8(&key, request.hierarchy == HierarchyKind::kCore
                     ? static_cast<uint8_t>(request.metric)
                     : 0);
  AppendU8(&key, static_cast<uint8_t>(request.hierarchy));
  AppendU32(&key, request.k);
  for (const VertexId v : sorted) AppendU32(&key, v);
  return key;
}

}  // namespace hcd::server
