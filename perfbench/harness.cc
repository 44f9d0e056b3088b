#include "harness.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>
#include <unordered_map>

namespace perfbench {

double MsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - origin).count();
}

size_t NearestRank(size_t n, double pct) {
  if (n == 0) return 0;
  // The small epsilon keeps e.g. 0.99 * 1000 at rank 990 despite the
  // binary representation of 0.99.
  double rank = std::ceil(pct * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

size_t SamplesBeyond(size_t n, double pct) { return n - NearestRank(n, pct); }

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double UnitDouble(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

uint64_t UniformIndex(std::mt19937_64& rng, uint64_t n) {
  // Reject the top partial bucket so every index is equally likely.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t draw = rng();
  while (draw >= limit) draw = rng();
  return draw % n;
}

ZipfSampler::ZipfSampler(size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(std::mt19937_64& rng) const {
  double u = UnitDouble(rng);
  size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

std::vector<OpenLoopRecord> RunOpenLoop(
    double rate_per_s, double seconds, int workers, Clock::time_point start,
    const std::function<bool(size_t)>& op,
    const std::function<void(int)>& between, double spin_ms) {
  const auto spin = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(std::max(0.0, spin_ms)));
  const size_t total =
      static_cast<size_t>(std::ceil(rate_per_s * seconds - 1e-9));
  std::vector<OpenLoopRecord> records(total);
  std::atomic<size_t> next{0};
  auto worker = [&](int w) {
#ifdef __linux__
    // Wake at the due time, not up to the default 50 us timer slack late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      OpenLoopRecord& rec = records[i];
      rec.due_ms = 1000.0 * static_cast<double>(i) / rate_per_s;
      Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(rec.due_ms));
      std::this_thread::sleep_until(due - spin);
      if (Clock::now() < due) {
        const double cpu0 = ThreadCpuMs();
        while (Clock::now() < due) {
        }
        rec.spin_cpu_ms = ThreadCpuMs() - cpu0;
      }
      rec.start_ms = MsSince(start, Clock::now());
      rec.ok = op(i);
      rec.done_ms = MsSince(start, Clock::now());
      if (between) between(w);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
  return records;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double KernelSliceMs() {
  // Sorting, hashing and allocation, the mix of the engine's own hot
  // paths, over inputs fixed at compile time.
  constexpr size_t kItems = 12000;
  auto t0 = Clock::now();
  std::vector<uint64_t> keys(kItems);
  uint64_t x = 88172645463325252ULL;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint32_t> index;
  for (size_t i = 0; i < kItems; i += 2) {
    index[keys[i] >> 8] = static_cast<uint32_t>(i);
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < kItems; ++i) hits += index.count(keys[i] >> 8);
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(hits, std::memory_order_relaxed);
  return MsSince(t0, Clock::now());
}

void SpeedProbe::Probe() {
  double slice = KernelSliceMs();
  last_ms_ = MsSince(origin_, Clock::now());
  samples_.emplace_back(last_ms_, slice);
}

void SpeedProbe::MaybeProbe(double every_ms) {
  if (MsSince(origin_, Clock::now()) - last_ms_ >= every_ms) Probe();
}

double SpeedFactor(const std::vector<std::pair<double, double>>& samples,
                   double t_ms, double window_ms, size_t min_samples,
                   double reference_slice_ms) {
  if (samples.empty()) return 1.0;
  auto by_time = [](const std::pair<double, double>& s, double t) {
    return s.first < t;
  };
  auto lo = std::lower_bound(samples.begin(), samples.end(),
                             t_ms - window_ms, by_time);
  auto hi = std::lower_bound(samples.begin(), samples.end(),
                             t_ms + window_ms, by_time);
  // Widen symmetrically to the nearest `min_samples`.
  while (static_cast<size_t>(hi - lo) < min_samples &&
         (lo != samples.begin() || hi != samples.end())) {
    if (lo != samples.begin()) --lo;
    if (static_cast<size_t>(hi - lo) < min_samples && hi != samples.end()) {
      ++hi;
    }
  }
  std::vector<double> slices;
  for (auto it = lo; it != hi; ++it) slices.push_back(it->second);
  return reference_slice_ms / Percentile(std::move(slices), 0.5);
}

int SpanRecorder::Add(std::string name, Clock::time_point start,
                      Clock::time_point end, int parent, int64_t op) {
  return AddMs(std::move(name), MsSince(origin_, start), MsSince(origin_, end),
               parent, op);
}

int SpanRecorder::AddMs(std::string name, double start_ms, double end_ms,
                        int parent, int64_t op) {
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, op, {}});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int base = static_cast<int>(spans_.size());
  const double shift = MsSince(origin_, other.origin_);
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    span.start_ms += shift;
    span.end_ms += shift;
    spans_.push_back(std::move(span));
  }
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"op\":%lld,\"parent\":%d,\"name\":\"", i,
                  static_cast<long long>(s.op), s.parent);
    out += buf;
    out += s.name;  // span names are fixed identifiers, never escaped
    std::snprintf(buf, sizeof buf, "\",\"start_ms\":%.6f,\"end_ms\":%.6f",
                  s.start_ms, s.end_ms);
    out += buf;
    if (!s.counters.empty()) {
      out += ",\"counters\":{";
      for (size_t c = 0; c < s.counters.size(); ++c) {
        // Counter names are fixed identifiers too.
        std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", c > 0 ? "," : "",
                      s.counters[c].first.c_str(), s.counters[c].second);
        out += buf;
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
