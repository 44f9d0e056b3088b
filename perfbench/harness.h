// Engine-independent pieces of the perfbench harness: percentiles, the
// seeded Zipf sampler, the open-loop scheduler, benchmark-side spans
// with self-time arithmetic, and the one-line JSON result. Kept apart
// from main.cc so tests/harness_test.cc can pin them without building a
// world.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `origin` to `t`.
double MsSince(Clock::time_point origin, Clock::time_point t);

/// Nearest-rank percentile: the smallest sample with at least
/// `pct` (in (0,1]) of all samples at or below it, i.e. sorted sample
/// number ceil(pct * n) (1-based). 0 for an empty set.
double Percentile(std::vector<double> samples, double pct);

/// 1-based nearest rank of `pct` among `n` samples.
size_t NearestRank(size_t n, double pct);

/// Samples strictly above the nearest-rank `pct` position.
size_t SamplesBeyond(size_t n, double pct);

double Mean(const std::vector<double>& samples);

/// Uniform double in [0, 1) from the top 53 bits of one draw —
/// platform-independent, unlike std::uniform_real_distribution.
double UnitDouble(std::mt19937_64& rng);

/// Uniform integer in [0, n) by rejection — platform-independent.
uint64_t UniformIndex(std::mt19937_64& rng, uint64_t n);

/// Deterministic Fisher-Yates shuffle using `UniformIndex`.
template <typename T>
void Shuffle(std::vector<T>* items, std::mt19937_64& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[UniformIndex(rng, i)]);
  }
}

/// Zipf(s) over ranks 0..n-1 (rank 0 hottest) by inverse CDF: the same
/// seed yields the same rank sequence on every platform.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Sample(std::mt19937_64& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// One scheduled request of an open-loop run, in milliseconds from the
/// run's start.
struct OpenLoopRecord {
  double due_ms = 0.0;    ///< when the schedule said to send it
  double start_ms = 0.0;  ///< when a worker actually sent it
  double done_ms = 0.0;   ///< when it completed
  bool ok = false;
  /// Thread CPU time spent spinning before the send (see RunOpenLoop);
  /// the harness's own, not the request's.
  double spin_cpu_ms = 0.0;
  /// Latency as the user sees it: from due, not from start, so a stall
  /// also charges every request queued behind it.
  double latency_ms() const { return done_ms - due_ms; }
  double lateness_ms() const { return start_ms - due_ms; }
};

/// Sends request i at `start + i / rate_per_s` for every i whose due
/// time falls before `start + seconds`, from `workers` threads that
/// take the schedule in order. `op(i)` returns success. Requests due
/// while every worker is busy start late and are charged from due.
/// `between(worker)`, when set, runs on a worker after each of its
/// requests completes, outside every request's timing. An idle worker
/// sleeps until `spin_ms` before the due time and spins from there, so
/// that the scheduler's wake-up delay (tens of microseconds, varying
/// with the host's load) does not enter sub-millisecond latencies.
std::vector<OpenLoopRecord> RunOpenLoop(
    double rate_per_s, double seconds, int workers, Clock::time_point start,
    const std::function<bool(size_t)>& op,
    const std::function<void(int)>& between = {}, double spin_ms = 0.0);

/// CPU time of the calling thread, in milliseconds.
double ThreadCpuMs();

/// Runs one slice of a fixed, engine-independent kernel (sorting,
/// hashing and allocation over constant inputs, about 1.3 ms on the
/// reference machine) and returns its wall time in milliseconds.
/// Thread-safe.
double KernelSliceMs();

/// Timed kernel slices taken between requests on one thread: how fast
/// the machine runs this process at each moment. Samples are (time ms
/// from `origin`, slice ms).
class SpeedProbe {
 public:
  explicit SpeedProbe(Clock::time_point origin) : origin_(origin) {}
  void Probe();
  /// Probes when at least `every_ms` passed since the last probe.
  void MaybeProbe(double every_ms);
  const std::vector<std::pair<double, double>>& samples() const {
    return samples_;
  }

 private:
  Clock::time_point origin_;
  double last_ms_ = -1e300;
  std::vector<std::pair<double, double>> samples_;
};

/// Machine-speed factor at `t_ms`: the reference slice time over the
/// median slice time of the samples within `window_ms` of `t_ms` (the
/// nearest `min_samples` when fewer fall inside). `samples` must be
/// sorted by time. Multiplying a measured duration by it expresses the
/// duration at the reference machine's speed. 1 when there are no
/// samples.
double SpeedFactor(const std::vector<std::pair<double, double>>& samples,
                   double t_ms, double window_ms, size_t min_samples,
                   double reference_slice_ms);

/// A benchmark-side trace span. `parent` indexes the same recorder's
/// span list (-1 for a root); spans of one request share `op`.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int64_t op = -1;
  /// Work counted at this boundary (RunStats, registry deltas).
  std::vector<std::pair<std::string, double>> counters;
};

/// In-memory span list of one thread; written out when the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}
  /// Records a finished span and returns its index.
  int Add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, int64_t op);
  int AddMs(std::string name, double start_ms, double end_ms, int parent,
            int64_t op);
  /// Sets a recorded span's end (a parent recorded before its children).
  void SetEndMs(int index, double end_ms) { spans_[index].end_ms = end_ms; }
  void AddCounter(int index, std::string name, double value) {
    spans_[index].counters.emplace_back(std::move(name), value);
  }
  const std::vector<Span>& spans() const { return spans_; }
  Clock::time_point origin() const { return origin_; }
  /// Appends `other`'s spans, re-basing their parent indexes.
  void Merge(const SpanRecorder& other);
  /// One JSON object per line; counters as a "counters" object.
  std::string ToJsonLines() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its direct children's intervals.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..},..}}. Values print with 17
/// significant digits; a non-finite value prints as null, which no
/// reader of the line accepts as a number.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
