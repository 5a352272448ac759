#ifndef HCD_TESTS_TEST_UTIL_H_
#define HCD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"

namespace hcd::testing {

/// Minimal strict JSON value + recursive-descent parser, enough to
/// round-trip the JSON the library emits (telemetry reports, Chrome traces,
/// metrics dumps) without an external dependency. Numbers are doubles;
/// objects preserve insertion order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with this key, or null when absent (objects only).
  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace internal {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return true;
      if (static_cast<unsigned char>(ch) < 0x20) return false;  // raw control
      if (ch != '\\') {
        *out += ch;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          // The library only emits \u00xx (control characters); decode the
          // single-byte range and reject what we never produce.
          if (code > 0x7f) return false;
          *out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char ch = text_[pos_];
    if (ch == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null");
    }
    if (ch == 't' || ch == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = ch == 't';
      return Literal(ch == 't' ? "true" : "false");
    }
    if (ch == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (ch == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue item;
        if (!ParseValue(&item)) return false;
        out->array.push_back(std::move(item));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (ch == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    // Number: delegate validation of the tail to strtod, but check the
    // leading character so "inf"/"nan" are rejected.
    if (ch != '-' && (ch < '0' || ch > '9')) return false;
    out->type = JsonValue::Type::kNumber;
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace internal

/// Parses `text` as one strict JSON document; false on any syntax error or
/// trailing content.
inline bool ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return internal::JsonParser(text).Parse(out);
}

/// A named generated graph for parameterized sweeps.
struct GraphCase {
  std::string name;
  Graph graph;
};

/// A diverse set of small-to-medium graphs exercising all structural
/// regimes: degenerate shapes, random (uniform + skewed), and planted
/// hierarchies with known HCDs.
inline std::vector<GraphCase> StandardGraphSuite() {
  std::vector<GraphCase> cases;
  cases.push_back({"empty", Graph()});
  {
    GraphBuilder b;
    cases.push_back({"isolated_only", std::move(b).Build(5)});
  }
  cases.push_back({"single_edge", PathGraph(2)});
  cases.push_back({"path16", PathGraph(16)});
  cases.push_back({"cycle9", CycleGraph(9)});
  cases.push_back({"star12", StarGraph(12)});
  cases.push_back({"k6", CompleteGraph(6)});
  cases.push_back({"paper_fig1", PaperFigure1Graph()});
  cases.push_back({"ring_of_cliques", RingOfCliques(5, 6)});
  cases.push_back({"gnm_sparse", ErdosRenyiGnm(300, 500, 1)});
  cases.push_back({"gnm_dense", ErdosRenyiGnm(120, 2500, 2)});
  cases.push_back({"gnp", ErdosRenyiGnp(90, 0.12, 3)});
  cases.push_back({"ba", BarabasiAlbert(400, 4, 4)});
  cases.push_back({"rmat", RMatGraph500(9, 3000, 5)});
  cases.push_back({"onion", PlantedHierarchy(OnionSpec(7, 10), 6)});
  cases.push_back(
      {"branching", PlantedHierarchy(BranchingSpec(2, 10, 2, 2, 6), 7)});
  cases.push_back({"forest2", PlantedForest({OnionSpec(4, 6), OnionSpec(6, 5)},
                                            8)});
  // Disconnected mixture with isolated vertices: K5 + path + 3 isolated.
  {
    GraphBuilder b;
    for (VertexId u = 0; u < 5; ++u) {
      for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
    }
    for (VertexId v = 5; v < 9; ++v) b.AddEdge(v, v + 1);
    cases.push_back({"mixture", std::move(b).Build(13)});
  }
  return cases;
}

/// Installs a fresh MetricsRegistry for its lifetime (or until Stop()) and
/// reads back what every ScopedStage recorded into it (telemetry.h's
/// Stage* reads), each 0 for a stage that never ran.
class StageProbe {
 public:
  StageProbe() { registry_.Install(); }
  ~StageProbe() { Stop(); }

  StageProbe(const StageProbe&) = delete;
  StageProbe& operator=(const StageProbe&) = delete;

  /// Uninstalls the registry; later stages are not recorded. Idempotent.
  void Stop() {
    if (MetricsRegistry::Current() == &registry_) registry_.Uninstall();
  }

  uint64_t Runs(const std::string& stage) const {
    return StageRuns(registry_, stage);
  }
  double Seconds(const std::string& stage) const {
    return StageSeconds(registry_, stage);
  }
  uint64_t Observations(const std::string& stage) const {
    return StageObservations(registry_, stage);
  }
  uint64_t Counter(const std::string& stage,
                   const std::string& counter) const {
    return StageDetail(registry_, stage, counter);
  }

  /// Completed runs of every stage together: the sum of all
  /// `hcd_stage_runs_total` series in the registry's JSON view.
  uint64_t TotalRuns() const {
    JsonValue doc;
    if (!ParseJson(registry_.RenderJson(), &doc)) return 0;
    uint64_t total = 0;
    for (const JsonValue& m : doc.Find("metrics")->array) {
      if (m.Find("name")->str != "hcd_stage_runs_total") continue;
      total += static_cast<uint64_t>(m.Find("value")->number);
    }
    return total;
  }

  MetricsRegistry& registry() { return registry_; }

 private:
  MetricsRegistry registry_;
};

/// Number of distinct values in `levels`: the non-empty shells of a
/// hierarchy whose elements have these levels.
inline uint64_t DistinctLevels(std::vector<uint32_t> levels) {
  std::sort(levels.begin(), levels.end());
  return static_cast<uint64_t>(
      std::unique(levels.begin(), levels.end()) - levels.begin());
}

/// Root ids of a frozen index: the roots' preorder subtree intervals tile
/// the nodes from 0.
inline std::vector<TreeNodeId> Roots(const FlatHcdIndex& index) {
  std::vector<TreeNodeId> roots;
  for (TreeNodeId r = 0; r < index.NumNodes(); r += index.SubtreeNodes(r)) {
    roots.push_back(r);
  }
  return roots;
}

/// Child ids of `node`, ascending: in preorder the first child is node + 1
/// and each next one starts where the previous child's subtree ends.
inline std::vector<TreeNodeId> Children(const FlatHcdIndex& index,
                                        TreeNodeId node) {
  std::vector<TreeNodeId> children;
  for (TreeNodeId c = node + 1; c < node + index.SubtreeNodes(node);
       c += index.SubtreeNodes(c)) {
    children.push_back(c);
  }
  return children;
}

/// Seeds for randomized property sweeps.
inline std::vector<uint64_t> SweepSeeds() { return {11, 22, 33, 44, 55}; }

}  // namespace hcd::testing

#endif  // HCD_TESTS_TEST_UTIL_H_
