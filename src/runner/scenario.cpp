#include "runner/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/traffic.hpp"
#include "sim/harp_sim.hpp"

namespace harp::runner {

namespace {

using Action = ScenarioSpec::Action;

// Every independent random decision of a scenario draws from its own
// derived sub-stream so adding a consumer never perturbs the others.
enum SeedStream : std::uint64_t {
  kTopologyStream = 0,
  kSimStream = 1,
};

net::Topology make_topology(const ScenarioSpec& spec, std::uint64_t seed) {
  switch (spec.topology) {
    case ScenarioSpec::TopologyKind::kFig1:
      return net::fig1_tree();
    case ScenarioSpec::TopologyKind::kTestbed:
      return net::testbed_tree();
    case ScenarioSpec::TopologyKind::kRandom: {
      Rng rng(derive_seed(seed, kTopologyStream));
      return net::random_tree(spec.random_tree, rng);
    }
  }
  throw InvalidArgument("unknown topology kind");
}

/// Applies one non-report action; jamming exchanges no messages.
sim::MgmtPlane::Summary apply_action(sim::HarpSimulation& sim,
                                     const ScenarioSpec& spec,
                                     const Action& act) {
  switch (act.kind) {
    case Action::Kind::kTaskRate:
      return sim.change_task_rate(act.a,
                                  static_cast<std::uint32_t>(act.value));
    case Action::Kind::kLinkDemand:
      return sim.change_link_demand(act.a, act.dir, act.value);
    case Action::Kind::kJoin:
      return sim.join_node(act.a, act.value, act.value2, act.b).summary;
    case Action::Kind::kLeave:
      return sim.leave_node(act.a);
    case Action::Kind::kRoam:
      return sim.roam_node(act.a, act.b);
    case Action::Kind::kJam: {  // on the data plane's clock (from bootstrap)
      const AbsoluteSlot from = sim.data().now();
      const AbsoluteSlot frames = static_cast<AbsoluteSlot>(act.value);
      sim.data().add_interference(
          act.a, from, from + frames * spec.frame.length, act.factor);
      return {};
    }
    case Action::Kind::kReport:
      break;
  }
  throw InvalidArgument("unknown scenario action");
}

/// Delivery and latency figures recorded since the last metrics clear.
void write_delivery(const sim::HarpSimulation& sim, obs::Json& out) {
  const sim::LatencyRecorder& m = sim.metrics();
  Stats overall;
  for (NodeId v = 1; v < sim.topology().size(); ++v) {
    overall.merge(m.node_latency(v));
  }
  obs::Json& latency = out["latency"];
  latency = obs::Json::object();
  latency["mean_s"] = overall.empty() ? 0.0 : overall.mean();
  latency["median_s"] = overall.empty() ? 0.0 : overall.median();
  latency["p95_s"] = overall.empty() ? 0.0 : overall.percentile(95.0);
  latency["max_s"] = overall.empty() ? 0.0 : overall.max();
  out["generated"] = m.total_generated();
  out["delivered"] = m.total_delivered();
  out["dropped"] = m.total_dropped();
  out["deadline_misses"] = m.total_deadline_misses();
  out["delivery_ratio"] =
      m.total_generated() == 0
          ? 0.0
          : static_cast<double>(m.total_delivered()) /
                static_cast<double>(m.total_generated());
}

}  // namespace

obs::Json run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  spec.frame.validate();
  net::Topology topo = make_topology(spec, seed);
  std::vector<net::Task> tasks =
      net::uniform_echo_tasks(topo, spec.task_period_slots);
  for (net::Task& t : tasks) t.deadline_slots = spec.task_deadline_slots;

  sim::HarpSimulation::Options options;
  options.frame = spec.frame;
  options.pdr = spec.pdr;
  options.seed = derive_seed(seed, kSimStream);
  options.queue_capacity = spec.queue_capacity;
  options.own_slack = spec.own_slack;

  sim::HarpSimulation sim(std::move(topo), std::move(tasks), options);
  const AbsoluteSlot bootstrap_slots = sim.bootstrap();
  const std::size_t bootstrap_messages = sim.mgmt().log().size();

  if (spec.warmup_frames > 0) {
    sim.run_frames(spec.warmup_frames);
    sim.data().metrics().clear();  // measure only the steady state
  }

  // Scripted actions interleave with measurement frames. Actions fire at
  // their at_frame offset (clamped to the measurement window), in stable
  // timeline order.
  std::vector<Action> script = spec.dynamics;
  std::stable_sort(script.begin(), script.end(),
                   [](const Action& x, const Action& y) {
                     return x.at_frame < y.at_frame;
                   });
  sim::MgmtPlane::Summary dyn_total;
  std::size_t dyn_actions = 0;
  obs::Json reports = obs::Json::array();
  std::uint64_t frame = 0;
  for (const Action& act : script) {
    const std::uint64_t at = std::min(act.at_frame, spec.measure_frames);
    if (at > frame) {
      sim.run_frames(at - frame);
      frame = at;
    }
    if (act.kind == Action::Kind::kReport) {
      obs::Json report = obs::Json::object();
      report["frame"] = frame;
      report["seconds"] = sim.now_seconds();
      write_delivery(sim, report);
      reports.push_back(std::move(report));
      continue;
    }
    const sim::MgmtPlane::Summary s = apply_action(sim, spec, act);
    ++dyn_actions;
    dyn_total.harp_messages += s.harp_messages;
    dyn_total.all_messages += s.all_messages;
    dyn_total.bytes += s.bytes;
    dyn_total.elapsed_seconds += s.elapsed_seconds;
  }
  if (spec.measure_frames > frame) {
    sim.run_frames(spec.measure_frames - frame);
  }

  obs::Json out = obs::Json::object();
  out["nodes"] = static_cast<std::uint64_t>(sim.topology().size());
  out["bootstrap_slots"] = bootstrap_slots;
  out["bootstrap_messages"] = static_cast<std::uint64_t>(bootstrap_messages);
  write_delivery(sim, out);
  obs::Json& dyn = out["dynamics"];
  dyn = obs::Json::object();
  dyn["actions"] = static_cast<std::uint64_t>(dyn_actions);
  dyn["harp_messages"] = static_cast<std::uint64_t>(dyn_total.harp_messages);
  dyn["all_messages"] = static_cast<std::uint64_t>(dyn_total.all_messages);
  dyn["bytes"] = static_cast<std::uint64_t>(dyn_total.bytes);
  dyn["seconds"] = dyn_total.elapsed_seconds;
  out["reports"] = std::move(reports);
  return out;
}

// ------------------------------------------------------------ .scn parser

namespace {

template <typename T>
constexpr T kMax = std::numeric_limits<T>::max();

/// The `key=value` arguments of one script line plus at most one
/// positional word. Reading a key consumes it, so whatever is left at the
/// end is a key the command does not know.
struct Args {
  std::map<std::string, std::string> kv;
  std::string word;

  /// `key`'s text, consumed; `fallback` when absent.
  std::string text(const std::string& key, const std::string& fallback) {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    std::string value = std::move(it->second);
    kv.erase(it);
    return value;
  }

  /// `key`'s value in [0, max], consumed; `fallback` when absent (the key
  /// is required when there is none).
  template <typename T>
  T get(const std::string& key, std::optional<T> fallback, T max) {
    if (!kv.contains(key)) {
      if (fallback) return *fallback;
      throw InvalidArgument("missing value for '" + key + "'");
    }
    const std::string value = text(key, "");
    T v{};
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end || !(v >= T{} && v <= max)) {
      std::ostringstream msg;
      msg << "'" << key << "' expects a number in [0, " << max << "], got '"
          << value << "'";
      throw InvalidArgument(msg.str());
    }
    return v;
  }
};

/// Applies one command to `spec`. Setup commands must precede
/// `bootstrap`; `run` advances `frame`, and every other command appends
/// an action at it.
void parse_command(const std::string& cmd, Args& args, ScenarioSpec& spec,
                   std::uint64_t& frame, bool& bootstrapped) {
  const auto setup = [&] {
    if (bootstrapped) {
      throw InvalidArgument("'" + cmd + "' must come before 'bootstrap'");
    }
  };
  const auto timeline = [&] {
    if (!bootstrapped) {
      throw InvalidArgument("'" + cmd + "' needs 'bootstrap' first");
    }
  };
  const auto action = [&](Action::Kind kind) -> Action& {
    timeline();
    spec.dynamics.push_back({.kind = kind, .at_frame = frame});
    return spec.dynamics.back();
  };
  const auto u32 = [&](const std::string& key,
                       std::optional<std::uint32_t> fallback = {}) {
    return args.get<std::uint32_t>(key, fallback, kMax<std::uint32_t>);
  };
  const auto i32 = [&](const std::string& key,
                       std::optional<std::int32_t> fallback = {}) {
    return args.get<std::int32_t>(key, fallback, kMax<std::int32_t>);
  };

  if (cmd == "net") {
    setup();
    const std::string kind = std::exchange(args.word, {});
    if (kind == "testbed") {
      spec.topology = ScenarioSpec::TopologyKind::kTestbed;
    } else if (kind == "fig1") {
      spec.topology = ScenarioSpec::TopologyKind::kFig1;
    } else if (kind == "random") {
      spec.topology = ScenarioSpec::TopologyKind::kRandom;
      spec.random_tree.num_nodes = u32("nodes", 50);
      spec.random_tree.num_layers = i32("layers", 5);
      spec.random_tree.max_children = u32("fanout", 0);
    } else {
      throw InvalidArgument("net expects testbed|fig1|random");
    }
  } else if (cmd == "frame") {
    setup();
    const net::SlotframeConfig d;
    spec.frame.length = u32("length", d.length);
    spec.frame.data_slots = u32("data", d.data_slots);
    spec.frame.num_channels = u32("channels", d.num_channels);
    spec.frame.validate();
  } else if (cmd == "options") {
    setup();
    spec.own_slack = i32("slack", 0);
    spec.pdr = args.get<double>("pdr", 1.0, 1.0);
  } else if (cmd == "tasks") {
    setup();
    spec.task_period_slots = u32("period", 199);
    spec.task_deadline_slots = u32("deadline", 0);
    if (spec.task_period_slots == 0) {
      throw InvalidArgument("'period' must be > 0");
    }
  } else if (cmd == "bootstrap") {
    if (bootstrapped) throw InvalidArgument("'bootstrap' given twice");
    bootstrapped = true;
  } else if (cmd == "run") {
    timeline();
    frame += u32("frames");
  } else if (cmd == "report") {
    action(Action::Kind::kReport);
  } else if (cmd == "demand") {
    Action& act = action(Action::Kind::kLinkDemand);
    act.a = u32("node");
    const std::string dir = args.text("dir", "up");
    if (dir != "up" && dir != "down") {
      throw InvalidArgument("'dir' expects up|down, got '" + dir + "'");
    }
    act.dir = dir == "up" ? Direction::kUp : Direction::kDown;
    act.value = i32("cells");
  } else if (cmd == "rate") {
    Action& act = action(Action::Kind::kTaskRate);
    act.a = u32("task");
    act.value = i32("period");
    if (act.value == 0) throw InvalidArgument("'period' must be > 0");
  } else if (cmd == "join") {
    Action& act = action(Action::Kind::kJoin);
    act.a = u32("parent");
    act.value = i32("up", 1);
    act.value2 = i32("down", 1);
    act.b = u32("period", spec.task_period_slots);
  } else if (cmd == "leave") {
    action(Action::Kind::kLeave).a = u32("node");
  } else if (cmd == "roam") {
    Action& act = action(Action::Kind::kRoam);
    act.a = u32("node");
    act.b = u32("parent");
  } else if (cmd == "jam") {
    Action& act = action(Action::Kind::kJam);
    act.a = args.get<std::uint32_t>("channel", {}, spec.frame.num_channels - 1);
    act.value = i32("frames");
    if (act.value == 0) throw InvalidArgument("'frames' must be > 0");
    act.factor = args.get<double>("factor", 0.0, 1.0);
  } else {
    throw InvalidArgument("unknown command '" + cmd + "'");
  }
}

}  // namespace

ScenarioSpec parse_scenario(std::istream& in) {
  ScenarioSpec spec;
  std::uint64_t frame = 0;
  bool bootstrapped = false;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::istringstream line(raw.substr(0, raw.find('#')));
    std::string cmd;
    if (!(line >> cmd)) continue;
    try {
      Args args;
      for (std::string token; line >> token;) {
        const auto eq = token.find('=');
        if (eq == std::string::npos && args.word.empty()) {
          args.word = token;
        } else if (eq == std::string::npos) {
          throw InvalidArgument("unexpected argument '" + token + "'");
        } else if (!args.kv.emplace(token.substr(0, eq), token.substr(eq + 1))
                        .second) {
          throw InvalidArgument("key '" + token.substr(0, eq) +
                                "' given twice");
        }
      }
      parse_command(cmd, args, spec, frame, bootstrapped);
      if (!args.word.empty()) {
        throw InvalidArgument("unexpected argument '" + args.word + "'");
      }
      if (!args.kv.empty()) {
        throw InvalidArgument("unknown key '" + args.kv.begin()->first +
                              "' for '" + cmd + "'");
      }
    } catch (const Error& e) {
      throw InvalidArgument("line " + std::to_string(line_no) + ": " +
                            e.what());
    }
  }
  if (!bootstrapped) {
    throw InvalidArgument("line " + std::to_string(line_no) +
                          ": script never runs 'bootstrap'");
  }
  spec.measure_frames = frame;
  return spec;
}

}  // namespace harp::runner
