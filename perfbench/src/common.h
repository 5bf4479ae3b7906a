// Timing, summary statistics, result sinks and the metric/outcome records
// shared by the workloads and the layer probes.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Metrics of one run, in the order they were added.
struct Metrics {
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items;
  void Add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Operations attempted and failed, plus the first correctness error.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_error;
  void Wrong(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
};

/// The benchmark's sink: counts paths and stamps the moment the
/// kResponseTarget-th path arrived (or the last one, when fewer did). With
/// `record` it also keeps every path, flattened, for checking after the run.
class TimedSink : public pathenum::PathSink {
 public:
  static constexpr uint64_t kResponseTarget = 1000;

  explicit TimedSink(bool record = false) : record_(record) {}

  bool OnPath(std::span<const pathenum::VertexId> path) override {
    Note(1);
    if (record_) Keep(path);
    return true;
  }
  BlockResult OnBlock(const pathenum::PathBlockView& block) override {
    if (record_) {
      pathenum::ForEachPathInBlock(
          block, [this](std::span<const pathenum::VertexId> p) {
            Keep(p);
            return true;
          });
    }
    Note(block.count);
    return {block.count, false};
  }

  uint64_t count() const { return count_; }
  /// Time of the response-target-th path, or of the last path when fewer
  /// arrived; meaningless when `has_paths()` is false.
  Clock::time_point response_time() const { return response_; }
  bool has_paths() const { return count_ > 0; }

  /// Recorded paths: `ends()[i]` is one past the last vertex of path i.
  const std::vector<pathenum::VertexId>& verts() const { return verts_; }
  const std::vector<uint32_t>& ends() const { return ends_; }

 private:
  void Note(uint64_t n) {
    const Clock::time_point now = Clock::now();
    if (count_ < kResponseTarget) response_ = now;
    count_ += n;
  }
  void Keep(std::span<const pathenum::VertexId> p) {
    verts_.insert(verts_.end(), p.begin(), p.end());
    ends_.push_back(static_cast<uint32_t>(verts_.size()));
  }

  bool record_;
  uint64_t count_ = 0;
  Clock::time_point response_{};
  std::vector<pathenum::VertexId> verts_;
  std::vector<uint32_t> ends_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
