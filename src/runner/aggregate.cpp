#include "runner/aggregate.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace harp::runner {

SummaryStats summarize(const std::vector<double>& samples) {
  SummaryStats s;
  s.count = samples.size();
  if (samples.empty()) return s;

  double sum = 0.0;
  s.min = samples.front();
  s.max = samples.front();
  for (double v : samples) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  const double n = static_cast<double>(samples.size());
  s.mean = sum / n;

  if (samples.size() > 1) {
    double sq = 0.0;
    for (double v : samples) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / (n - 1.0));
    s.ci95 = 1.96 * s.stddev / std::sqrt(n);
  }

  Stats dist;
  for (double v : samples) dist.add(v);
  s.median = dist.median();
  s.p95 = dist.percentile(95.0);
  return s;
}

obs::Json to_json(const SummaryStats& s) {
  obs::Json out = obs::Json::object();
  out["count"] = static_cast<std::uint64_t>(s.count);
  out["mean"] = s.mean;
  out["stddev"] = s.stddev;
  out["min"] = s.min;
  out["max"] = s.max;
  out["median"] = s.median;
  out["p95"] = s.p95;
  out["ci95"] = s.ci95;
  return out;
}

void flatten_numeric(const obs::Json& doc, const std::string& prefix,
                     std::vector<std::pair<std::string, double>>& out) {
  if (doc.is_number()) {
    out.emplace_back(prefix, doc.number());
    return;
  }
  const auto join = [&](const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  };
  if (const obs::Json::Object* obj = doc.as_object()) {
    for (const obs::Json::Member& m : *obj) {
      flatten_numeric(m.second, join(m.first), out);
    }
  } else if (const obs::Json::Array* arr = doc.as_array()) {
    for (std::size_t i = 0; i < arr->size(); ++i) {
      flatten_numeric((*arr)[i], join(std::to_string(i)), out);
    }
  }
}

obs::Json aggregate_results(const std::vector<obs::Json>& trial_results) {
  // Collect samples per dotted path, preserving first-seen path order.
  std::vector<std::string> order;
  std::vector<std::vector<double>> samples;
  const auto slot_of = [&](const std::string& path) -> std::vector<double>& {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == path) return samples[i];
    }
    order.push_back(path);
    samples.emplace_back();
    return samples.back();
  };

  std::vector<std::pair<std::string, double>> flat;
  for (const obs::Json& doc : trial_results) {
    flat.clear();
    flatten_numeric(doc, "", flat);
    for (const auto& [path, value] : flat) slot_of(path).push_back(value);
  }

  obs::Json out = obs::Json::object();
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[order[i]] = to_json(summarize(samples[i]));
  }
  return out;
}

}  // namespace harp::runner
