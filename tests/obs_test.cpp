// Tests for the observability layer (src/obs): metrics registry
// semantics, trace ring buffer behavior, the disabled-path allocation
// guarantee, JSON serialization round-trips, and the pinning of the
// trace exporter's local aux-enum wire names against the authoritative
// enums in core/proto.
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "harp/engine.hpp"
#include "obs/obs.hpp"
#include "proto/messages.hpp"

// ------------------------------------------------------------------
// Global allocation counter: obs_test asserts the disabled trace path
// allocates nothing. Replacing these signatures is sufficient for the
// single-threaded test binary.
static std::atomic<std::size_t> g_live_allocs{0};

// GCC cannot see that the replacement operator new below is malloc-based
// and flags every free() in the replacement deletes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  ++g_live_allocs;
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

using harp::obs::EventType;
using harp::obs::Histogram;
using harp::obs::Json;
using harp::obs::MetricsRegistry;
using harp::obs::TraceEvent;
using harp::obs::TraceSink;

// ------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterGetOrCreateIsStable) {
  MetricsRegistry reg;
  harp::obs::Counter& a = reg.counter("harp.test.hits");
  a.inc();
  a.inc(4);
  harp::obs::Counter& b = reg.counter("harp.test.hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.find_counter("harp.test.hits"), &a);
  EXPECT_EQ(reg.find_counter("harp.test.misses"), nullptr);
}

TEST(MetricsRegistry, HistogramBucketsInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("harp.test.sizes", {10, 100});
  h.record(0);
  h.record(10);   // inclusive: still the first bucket
  h.record(11);
  h.record(100);  // inclusive: second bucket
  h.record(101);  // overflow bucket
  ASSERT_EQ(h.counts().size(), 3u);  // bounds + overflow
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 101u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 101);
  EXPECT_DOUBLE_EQ(h.mean(), 222.0 / 5.0);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  harp::obs::Counter& c = reg.counter("harp.test.a");
  harp::obs::Gauge& g = reg.gauge("harp.test.b");
  Histogram& h = reg.histogram("harp.test.c_ns");
  c.inc(7);
  g.set(3.5);
  h.record(1234);
  reg.reset();
  // Addresses survive (instrumented code caches them)...
  EXPECT_EQ(&reg.counter("harp.test.a"), &c);
  EXPECT_EQ(&reg.gauge("harp.test.b"), &g);
  EXPECT_EQ(&reg.histogram("harp.test.c_ns"), &h);
  // ...but values are zeroed.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  const auto names = reg.names();
  EXPECT_EQ(names.size(), 3u);
}

// ------------------------------------------------------------ trace ring

TEST(TraceSink, RingWraparoundKeepsNewestOldestFirst) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  TraceSink sink;
  sink.enable(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    sink.emit({.type = EventType::kSlotTick, .slot = i});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.overwritten(), 2u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].slot, i + 2) << "snapshot must be oldest-first";
  }
}

TEST(TraceSink, ReenableSameCapacityClearsWithoutRealloc) {
  TraceSink sink;
  sink.enable(8);
  sink.emit({.type = EventType::kSlotTick, .slot = 1});
  sink.enable(8);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.overwritten(), 0u);
  EXPECT_TRUE(sink.enabled());
}

TEST(TraceSink, DisabledEmitAllocatesNothing) {
  TraceSink sink;  // never enabled
  const std::size_t before = g_live_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    sink.emit({.type = EventType::kTxAttempt, .a = 1, .b = 2, .slot = 7});
  }
  EXPECT_EQ(g_live_allocs.load(), before)
      << "a disabled TraceSink must not touch the heap";
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, EnabledEmitAllocatesNothing) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  TraceSink sink;
  sink.enable(16);  // preallocates here, not in emit
  const std::size_t before = g_live_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    sink.emit({.type = EventType::kTxAttempt, .a = 1, .b = 2, .slot = 7});
  }
  EXPECT_EQ(g_live_allocs.load(), before)
      << "recording into the preallocated ring must not allocate";
  EXPECT_EQ(sink.size(), 16u);
}

// ------------------------------------------------- minimal JSON parser
// The obs Json class only writes; round-trip tests carry their own
// recursive-descent reader. Numbers are held as double (enough for the
// values these tests feed through).

struct JValue;
using JObject = std::map<std::string, std::shared_ptr<JValue>>;
using JArray = std::vector<std::shared_ptr<JValue>>;

struct JValue {
  std::variant<std::nullptr_t, bool, double, std::string, JArray, JObject> v;
};

class JParser {
 public:
  explicit JParser(const std::string& s) : s_(s) {}

  std::shared_ptr<JValue> parse() {
    auto val = value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing garbage after JSON document";
    return val;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    EXPECT_LT(pos_, s_.size()) << "unexpected end of JSON";
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void expect(char c) {
    EXPECT_EQ(peek(), c);
    ++pos_;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        EXPECT_LT(pos_, s_.size());
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'u': {
            EXPECT_LE(pos_ + 4, s_.size());
            const unsigned code = static_cast<unsigned>(
                std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else {  // enough for the control chars the writer escapes
              out += '?';
            }
            break;
          }
          default:
            ADD_FAILURE() << "bad escape \\" << esc;
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  std::shared_ptr<JValue> value() {
    const char c = peek();
    auto val = std::make_shared<JValue>();
    if (c == '{') {
      expect('{');
      JObject obj;
      if (peek() != '}') {
        while (true) {
          std::string key = string_lit();
          expect(':');
          obj[key] = value();
          if (peek() == ',') {
            expect(',');
          } else {
            break;
          }
        }
      }
      expect('}');
      val->v = std::move(obj);
    } else if (c == '[') {
      expect('[');
      JArray arr;
      if (peek() != ']') {
        while (true) {
          arr.push_back(value());
          if (peek() == ',') {
            expect(',');
          } else {
            break;
          }
        }
      }
      expect(']');
      val->v = std::move(arr);
    } else if (c == '"') {
      val->v = string_lit();
    } else if (c == 't') {
      EXPECT_EQ(s_.substr(pos_, 4), "true");
      pos_ += 4;
      val->v = true;
    } else if (c == 'f') {
      EXPECT_EQ(s_.substr(pos_, 5), "false");
      pos_ += 5;
      val->v = false;
    } else if (c == 'n') {
      EXPECT_EQ(s_.substr(pos_, 4), "null");
      pos_ += 4;
      val->v = nullptr;
    } else {
      skip_ws();
      std::size_t end = pos_;
      while (end < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[end])) ||
              s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
              s_[end] == 'e' || s_[end] == 'E')) {
        ++end;
      }
      EXPECT_GT(end, pos_) << "expected a number";
      val->v = std::atof(s_.substr(pos_, end - pos_).c_str());
      pos_ = end;
    }
    return val;
  }

  const std::string& s_;
  std::size_t pos_{0};
};

const JValue& member(const JValue& obj, const std::string& key) {
  const auto* o = std::get_if<JObject>(&obj.v);
  EXPECT_NE(o, nullptr);
  static JValue null_value;
  if (!o) return null_value;
  auto it = o->find(key);
  EXPECT_NE(it, o->end()) << "missing member " << key;
  if (it == o->end()) return null_value;
  return *it->second;
}

double num(const JValue& v) {
  const auto* d = std::get_if<double>(&v.v);
  EXPECT_NE(d, nullptr);
  return d ? *d : 0.0;
}

TEST(Json, RoundTripThroughParser) {
  Json doc;
  doc["string"] = "line\nwith \"quotes\" and \\backslash";
  doc["int"] = -42;
  doc["uint"] = 18446744073709551615ull;  // 2^64-1 survives as integer text
  doc["double"] = 0.1;
  doc["flag"] = true;
  doc["nothing"] = nullptr;
  doc["list"].push_back(1);
  doc["list"].push_back("two");
  doc["nested"]["inner"] = 3;

  const std::string text = doc.dump_string();
  JParser parser(text);
  const auto parsed = parser.parse();
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(std::get<std::string>(member(*parsed, "string").v),
            "line\nwith \"quotes\" and \\backslash");
  EXPECT_DOUBLE_EQ(num(member(*parsed, "int")), -42.0);
  EXPECT_DOUBLE_EQ(num(member(*parsed, "double")), 0.1);
  EXPECT_EQ(std::get<bool>(member(*parsed, "flag").v), true);
  EXPECT_TRUE(
      std::holds_alternative<std::nullptr_t>(member(*parsed, "nothing").v));
  const auto& list = std::get<JArray>(member(*parsed, "list").v);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(num(*list[0]), 1.0);
  EXPECT_EQ(std::get<std::string>(list[1]->v), "two");
  EXPECT_DOUBLE_EQ(num(member(member(*parsed, "nested"), "inner")), 3.0);
  // 2^64-1 must appear verbatim, not rounded through a double.
  EXPECT_NE(text.find("18446744073709551615"), std::string::npos);
}

TEST(Json, RegistrySnapshotParsesAndMatches) {
  MetricsRegistry reg;
  reg.counter("harp.test.hits").inc(3);
  reg.gauge("harp.test.level").set(2.5);
  Histogram& h = reg.histogram("harp.test.lat_ns", {100, 1000});
  h.record(50);
  h.record(5000);

  const std::string text = reg.to_json().dump_string();
  JParser parser(text);
  const auto parsed = parser.parse();
  ASSERT_NE(parsed, nullptr);
  EXPECT_DOUBLE_EQ(
      num(member(member(*parsed, "counters"), "harp.test.hits")), 3.0);
  EXPECT_DOUBLE_EQ(
      num(member(member(*parsed, "gauges"), "harp.test.level")), 2.5);
  const JValue& hist =
      member(member(*parsed, "histograms"), "harp.test.lat_ns");
  EXPECT_DOUBLE_EQ(num(member(hist, "count")), 2.0);
  EXPECT_DOUBLE_EQ(num(member(hist, "min")), 50.0);
  EXPECT_DOUBLE_EQ(num(member(hist, "max")), 5000.0);
  const auto& buckets = std::get<JArray>(member(hist, "buckets").v);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(num(member(*buckets[0], "le")), 100.0);
  EXPECT_DOUBLE_EQ(num(member(*buckets[0], "count")), 1.0);
  EXPECT_EQ(std::get<std::string>(member(*buckets[2], "le").v), "inf");
  EXPECT_DOUBLE_EQ(num(member(*buckets[2], "count")), 1.0);
}

TEST(TraceSink, JsonlLinesParse) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  TraceSink sink;
  sink.enable(16);
  const std::uint16_t phase = sink.register_phase("harp.test.phase_ns");
  sink.emit({.type = EventType::kSlotTick, .slot = 3});
  sink.emit({.type = EventType::kTxSuccess,
             .aux = 0,
             .channel = 5,
             .a = 1,
             .b = 2,
             .slot = 3});
  sink.emit({.type = EventType::kDeliver, .aux = 1, .a = 9, .slot = 4,
             .value = 12});
  sink.emit({.type = EventType::kPhase, .a = phase, .value = 1500});

  std::ostringstream out;
  sink.write_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::vector<std::shared_ptr<JValue>> lines;
  while (std::getline(in, line)) {
    JParser parser(line);
    lines.push_back(parser.parse());
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(std::get<std::string>(member(*lines[0], "type").v), "slot_tick");
  EXPECT_DOUBLE_EQ(num(member(*lines[0], "slot")), 3.0);
  EXPECT_EQ(std::get<std::string>(member(*lines[1], "type").v), "tx_success");
  EXPECT_EQ(std::get<std::string>(member(*lines[1], "dir").v), "up");
  EXPECT_DOUBLE_EQ(num(member(*lines[1], "channel")), 5.0);
  EXPECT_EQ(std::get<bool>(member(*lines[2], "met_deadline").v), true);
  EXPECT_DOUBLE_EQ(num(member(*lines[2], "latency_slots")), 12.0);
  EXPECT_EQ(std::get<std::string>(member(*lines[3], "phase").v),
            "harp.test.phase_ns");
  EXPECT_DOUBLE_EQ(num(member(*lines[3], "ns")), 1500.0);
}

// ------------------------------------- aux wire-name pinning vs core/proto
// trace.cpp keeps local name tables so obs stays at the bottom of the
// dependency stack; these tests fail if the authoritative enum order ever
// diverges from those tables.

std::string render_one(const TraceEvent& e) {
  TraceSink sink;
  sink.enable(2);
  sink.emit(e);
  std::ostringstream out;
  sink.write_jsonl(out);
  return out.str();
}

TEST(TraceAux, AdjustKindNamesPinnedToCoreEnum) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  using harp::core::AdjustmentKind;
  const struct {
    AdjustmentKind kind;
    const char* wire;
  } cases[] = {
      {AdjustmentKind::kNoChange, "no_change"},
      {AdjustmentKind::kLocalRelease, "local_release"},
      {AdjustmentKind::kLocalSchedule, "local_schedule"},
      {AdjustmentKind::kPartitionAdjust, "partition_adjust"},
      {AdjustmentKind::kRejected, "rejected"},
  };
  for (const auto& c : cases) {
    const std::string line =
        render_one({.type = EventType::kAdjustEnd,
                    .aux = static_cast<std::uint8_t>(c.kind),
                    .a = 1});
    EXPECT_NE(line.find(std::string("\"kind\":\"") + c.wire + "\""),
              std::string::npos)
        << line;
  }
}

TEST(TraceAux, MsgTypeNamesPinnedToProtoEnum) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  using harp::proto::MsgType;
  const struct {
    MsgType type;
    const char* wire;
  } cases[] = {
      {MsgType::kPostIntf, "post_intf"}, {MsgType::kPutIntf, "put_intf"},
      {MsgType::kPostPart, "post_part"}, {MsgType::kPutPart, "put_part"},
      {MsgType::kCellAssign, "cell_assign"}, {MsgType::kReject, "reject"},
  };
  for (const auto& c : cases) {
    const std::string line =
        render_one({.type = EventType::kMsgSend,
                    .aux = static_cast<std::uint8_t>(c.type),
                    .a = 1,
                    .b = 2});
    EXPECT_NE(line.find(std::string("\"msg\":\"") + c.wire + "\""),
              std::string::npos)
        << line;
  }
}

TEST(TraceAux, AuditFailRendersCheckNameAndNode) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  TraceSink sink;
  sink.enable(2);
  const std::uint16_t check = sink.register_phase("engine.bootstrap");
  sink.emit({.type = EventType::kAuditFail, .a = check, .b = 7});
  std::ostringstream out;
  sink.write_jsonl(out);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"type\":\"audit_fail\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"check\":\"engine.bootstrap\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"node\":7"), std::string::npos) << line;
}

TEST(TraceAux, DirectionNamesPinnedToCommonEnum) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  EXPECT_EQ(static_cast<int>(harp::Direction::kUp), 0);
  EXPECT_EQ(static_cast<int>(harp::Direction::kDown), 1);
  const std::string up = render_one(
      {.type = EventType::kTxSuccess, .aux = 0, .a = 1, .b = 2});
  EXPECT_NE(up.find("\"dir\":\"up\""), std::string::npos);
  const std::string down = render_one(
      {.type = EventType::kTxSuccess, .aux = 1, .a = 1, .b = 2});
  EXPECT_NE(down.find("\"dir\":\"down\""), std::string::npos);
}

// ---------------------------------------------------------- scope timer

TEST(ScopedTimer, RecordsWhenTimingEnabled) {
  harp::obs::set_timing_enabled(true);
  Histogram& hist =
      MetricsRegistry::global().histogram("harp.test.scope_ns");
  const std::uint64_t before = hist.count();
  {
    HARP_OBS_SCOPE("harp.test.scope_ns");
    volatile int spin = 0;
    for (int i = 0; i < 100; ++i) spin = spin + i;
  }
  harp::obs::set_timing_enabled(false);
#if HARP_OBS_ENABLED
  EXPECT_EQ(hist.count(), before + 1);
#else
  EXPECT_EQ(hist.count(), before);
#endif
}

TEST(ScopedTimer, NoRecordWhenTimingDisabled) {
  harp::obs::set_timing_enabled(false);
  Histogram& hist =
      MetricsRegistry::global().histogram("harp.test.scope2_ns");
  const std::uint64_t before = hist.count();
  {
    HARP_OBS_SCOPE("harp.test.scope2_ns");
  }
  EXPECT_EQ(hist.count(), before);
}

}  // namespace
