// perfbench: the repository benchmark. One process builds the 93k-triple
// world and, from a seed, the queries and writes; runs one workload
// (explore, serve-zipf or ingest) against a TriniT engine for a fixed
// time; checks every answer against a reference engine built from the
// same world with the answer cache off; and prints one JSON result line.
// README.md documents the workloads, their parameters, the metrics and
// what each should move.
//
//   perfbench --workload <explore|serve-zipf|ingest> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the run
// with spans around every benchmark-side layer call and prints the
// per-layer metrics, writing the spans to <scratch>/trace-*.jsonl.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"  // AnswerBytes, shared with the P-series exhibits
#include "core/trinit.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "harness.h"
#include "openie/pipeline.h"
#include "plan/planner.h"
#include "query/binding.h"
#include "query/parser.h"
#include "relax/rewriter.h"
#include "synth/corpus_generator.h"
#include "synth/kg_generator.h"
#include "topk/topk_processor.h"
#include "xkg/xkg_builder.h"

namespace perfbench {
namespace {

using namespace trinit;
using trinit::bench::AnswerBytes;

// ------------------------------------------------------------ parameters
// Every value below is recorded in README.md; change both together.

constexpr size_t kWorldTriples = 100000;   // Scaled(100000): 93,097 triples
// The world is the same for every run; --seed picks the queries, their
// order, the Zipf ranks and the writes. Worlds built from different
// seeds differ in cost by 2x (the mined rules differ), which no bound
// on a seed-to-seed spread could hold.
constexpr uint64_t kWorldSeed = 3;
constexpr double kSentencesPerFact = 4.0;  // extraction-heavy, as bench E2
constexpr int kTopK = 10;
constexpr size_t kPoolQueries = 4000;  // distinct generated queries
constexpr int kSetupReps = 3;          // set-up repeated, median reported
constexpr int kRestartReps = 5;

// explore: queries kept back to warm shapes and plans, per archetype.
constexpr size_t kWarmPerArchetype = 3;

// serve-zipf: more distinct queries than the 1,024-entry answer cache.
constexpr size_t kServePool = 1536;
constexpr double kServeZipfExponent = 1.0;
constexpr int kServeMaxClients = 4;

// ingest: open-loop reads beside a writer on a fixed schedule.
constexpr size_t kIngestPool = 512;
constexpr double kIngestZipfExponent = 1.6;
constexpr double kIngestReadsPerSecond = 120.0;
constexpr double kIngestLatencyLimitMs = 100.0;
// An idle reader sleeps until this long before a read is due and spins
// from there (see RunOpenLoop); the spin's CPU time is not charged.
constexpr double kIngestSpinMs = 0.5;
constexpr double kWriteEveryMs = 2000.0;
constexpr int kFactsPerWrite = 3;

// Quiet write probe on the closed-loop workloads (E, R, E, R, E).
constexpr int kProbeWrites = 5;

// Machine-speed probes (see README.md, "Machine speed"): a fixed kernel
// slice is timed every kProbeEveryMs on every thread that sends
// requests; each time metric is scaled by the reference slice time
// over the median slice time measured around it.
constexpr double kProbeEveryMs = 150.0;
constexpr double kReferenceSliceMs = 1.25;
constexpr double kSpeedWindowMs = 1000.0;
constexpr size_t kSpeedMinSamples = 7;
constexpr int kQuietProbeSlices = 9;  // after one untimed warm-up slice

// Traced run only.
constexpr size_t kLayerSample = 200;     // distinct queries, standalone calls
constexpr size_t kOverheadPairs = 120;   // traced/untraced pairs
constexpr size_t kDeadlineSample = 16;   // paraphrase replays, 1 ms budget

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Take(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): independent deterministic streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Speed factor from a few kernel slices on the calling thread, for
/// durations measured outside the timed phase (set-up, restart, writes).
double QuietFactor() {
  KernelSliceMs();
  std::vector<double> slices;
  for (int i = 0; i < kQuietProbeSlices; ++i) slices.push_back(KernelSliceMs());
  return kReferenceSliceMs / Median(std::move(slices));
}

/// Times `fn` and returns its duration at the reference speed, taking
/// the speed as the mean of the factors just before and just after.
template <typename Fn>
double ScaledMs(Fn&& fn, double* raw_ms = nullptr) {
  double before = QuietFactor();
  auto t0 = Clock::now();
  fn();
  double ms = MsSince(t0, Clock::now());
  if (raw_ms != nullptr) *raw_ms = ms;
  return ms * (before + QuietFactor()) / 2.0;
}

// --------------------------------------------------------------- inputs

struct Inputs {
  synth::World world;
  eval::Workload workload;              // queries + qrels
  std::vector<size_t> order;            // seeded permutation of queries
  std::vector<std::string> writes;      // ingest write texts, in order
  std::vector<bool> write_is_extend;
};

/// The cost class of a query archetype, which sets where its requests
/// land in the latency distribution.
std::string CostClass(const std::string& archetype) {
  if (archetype == "paraphrase") return "paraphrase";
  if (archetype.rfind("join", 0) == 0) return "join";
  return "lookup";
}

/// The seeded write sequence: even writes extend the KG with a small
/// batch of facts over existing entities and predicates, odd writes add
/// one fresh low-weight rule between two existing predicates.
void MakeWrites(uint64_t seed, size_t count, Inputs* in) {
  std::mt19937_64 rng(SubSeed(seed, 4));
  const synth::World& w = in->world;
  const auto& preds = w.spec.predicates;
  for (size_t j = 0; j < count; ++j) {
    std::string text;
    if (j % 2 == 0) {
      auto pick = [&](synth::EntityClass cls) {
        const auto& members = w.OfClass(cls);
        return w.entities[members[UniformIndex(rng, members.size())]].name;
      };
      for (int f = 0; f < kFactsPerWrite; ++f) {
        // Field names can contain a space, which is not one query term.
        const synth::PredicateSpec* p = nullptr;
        do {
          p = &preds[UniformIndex(rng, preds.size())];
        } while (p->subject_class == synth::EntityClass::kField ||
                 p->object_class == synth::EntityClass::kField);
        text += pick(p->subject_class) + " " + p->name + " " +
                pick(p->object_class) + "\n";
      }
    } else {
      size_t a = UniformIndex(rng, preds.size());
      size_t b = (a + 1 + UniformIndex(rng, preds.size() - 1)) % preds.size();
      char weight[16];
      std::snprintf(weight, sizeof weight, "%.2f",
                    0.1 + 0.2 * UnitDouble(rng));
      text = "perfbench_w" + std::to_string(j) + ": ?x " + preds[a].name +
             " ?y => ?x " + preds[b].name + " ?y @ " + weight + "\n";
    }
    in->writes.push_back(std::move(text));
    in->write_is_extend.push_back(j % 2 == 0);
  }
}

Inputs MakeInputs(uint64_t seed, size_t writes) {
  Inputs in;
  synth::WorldSpec spec = synth::WorldSpec::Scaled(kWorldTriples, kWorldSeed);
  spec.sentences_per_fact = kSentencesPerFact;
  in.world = synth::KgGenerator::Generate(spec);
  eval::WorkloadGenerator::Options options;
  options.num_queries = kPoolQueries;
  options.seed = SubSeed(seed, 1);
  in.workload = eval::WorkloadGenerator::Generate(in.world, options);
  // The order interleaves the archetypes in their pool shares, each
  // archetype shuffled by the seed: every prefix, and so every hot set
  // of Zipf ranks, has the pool's mix instead of a seed-dependent draw.
  std::map<std::string, std::vector<size_t>> by_class;
  for (size_t q = 0; q < in.workload.queries.size(); ++q) {
    by_class[in.workload.queries[q].archetype].push_back(q);
  }
  std::mt19937_64 rng(SubSeed(seed, 2));
  std::vector<std::pair<std::vector<size_t>*, size_t>> classes;  // taken
  for (auto& [cls, members] : by_class) {
    Shuffle(&members, rng);
    classes.emplace_back(&members, 0);
  }
  const double total = static_cast<double>(in.workload.queries.size());
  for (size_t r = 0; r < in.workload.queries.size(); ++r) {
    // The class furthest behind its share of the first r+1 ranks.
    size_t best = 0;
    double best_deficit = -1e300;
    for (size_t c = 0; c < classes.size(); ++c) {
      const auto& [members, taken] = classes[c];
      if (taken == members->size()) continue;
      double deficit = static_cast<double>(members->size()) / total *
                           static_cast<double>(r + 1) -
                       static_cast<double>(taken);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = c;
      }
    }
    in.order.push_back((*classes[best].first)[classes[best].second++]);
  }
  MakeWrites(seed, writes, &in);
  return in;
}

/// The first answer after a restart: the first single-pattern lookup
/// in the seeded order, so restart_ms does not swing with the cost
/// class of whichever query happens to come first.
const std::string& RestartQuery(const Inputs& in) {
  for (size_t q : in.order) {
    if (CostClass(in.workload.queries[q].archetype) == "lookup") {
      return in.workload.queries[q].text;
    }
  }
  return in.workload.queries[in.order[0]].text;
}

// --------------------------------------------------------------- engines

core::TrinitOptions SutOptions() { return core::TrinitOptions{}; }

core::TrinitOptions ReferenceOptions() {
  core::TrinitOptions options;
  options.serving.enabled = false;
  return options;
}

core::TrinitOptions MappedOptions() {
  core::TrinitOptions options;
  options.snapshot_read.mode = storage::LoadMode::kMapped;
  options.snapshot_read.verify = rdf::SnapshotValidation::kTrusted;
  return options;
}

using EnginePtr = std::unique_ptr<core::Trinit>;

EnginePtr Build(const synth::World& world, core::TrinitOptions options) {
  return std::make_unique<core::Trinit>(
      Take(core::Trinit::FromWorld(world, options), "FromWorld"));
}

/// The pieces FromWorld composes, timed one by one (traced runs).
struct BuildSplit {
  double pipeline_s = 0.0;  // corpus generation + Open IE pipeline
  double xkg_s = 0.0;       // KG population + XKG build
  double mine_s = 0.0;      // Trinit::Open: rule mining + engine set-up
};

EnginePtr BuildInPieces(const synth::World& world, core::TrinitOptions options,
                        BuildSplit* split) {
  auto t0 = Clock::now();
  xkg::XkgBuilder builder;
  synth::KgGenerator::PopulateKg(world, &builder);
  auto t1 = Clock::now();
  std::vector<synth::Document> docs = synth::CorpusGenerator::Generate(world);
  openie::Pipeline pipeline(openie::Extractor(),
                            openie::Pipeline::LinkerForWorld(world));
  pipeline.Run(docs, &builder);
  auto t2 = Clock::now();
  xkg::Xkg xkg = Take(builder.Build(), "XkgBuilder::Build");
  auto t3 = Clock::now();
  auto engine = std::make_unique<core::Trinit>(
      Take(core::Trinit::Open(std::move(xkg), options), "Trinit::Open"));
  auto t4 = Clock::now();
  split->pipeline_s = MsSince(t1, t2) / 1e3;
  split->xkg_s = (MsSince(t0, t1) + MsSince(t2, t3)) / 1e3;
  split->mine_s = MsSince(t3, t4) / 1e3;
  return engine;
}

core::QueryRequest Request(const std::string& text, bool trace) {
  core::QueryRequest request = core::QueryRequest::Text(text, kTopK);
  request.trace = trace;
  return request;
}

// ------------------------------------------------------------ op records

/// Distinct result bodies one client received. An answer-cache hit
/// shares the body its miss stored, so an op keeps an index into this
/// table rather than its own reference: the records of a long run stay
/// small and keep no evicted body alive.
struct BodyTable {
  std::vector<std::shared_ptr<const topk::TopKResult>> bodies;
  std::unordered_map<const topk::TopKResult*, uint32_t> index;

  uint32_t Intern(const std::shared_ptr<const topk::TopKResult>& body) {
    auto [it, inserted] =
        index.emplace(body.get(), static_cast<uint32_t>(bodies.size()));
    if (inserted) bodies.push_back(body);
    return it->second;
  }
};

/// What a traced op keeps beyond its timings.
struct TracedOp {
  topk::TopKResult::RunStats stats;
  std::optional<obs::TraceSpan> span;
};

struct OpRecord {
  uint32_t query = 0;      // index into Inputs::workload.queries
  uint32_t body = 0;       // index into the run's BodyTable
  bool ok = false;
  bool hit = false;
  double due_ms = -1.0;    // open loop only
  double call_ms = 0.0;    // Execute called (phase clock)
  double return_ms = 0.0;  // Execute returned
  double explain_ms = 0.0;  // explore: Explain returned
  double done_ms = 0.0;    // op finished
  std::unique_ptr<TracedOp> traced;

  double begin_ms() const { return due_ms >= 0.0 ? due_ms : call_ms; }
  double latency_ms() const { return done_ms - begin_ms(); }
};

/// One Execute into `engine`, filling the record's engine-side fields;
/// the body goes to `bodies` when given.
void ExecuteInto(const core::Trinit& engine, const Inputs& in, bool trace,
                 Clock::time_point origin, BodyTable* bodies, OpRecord* rec) {
  core::QueryRequest request =
      Request(in.workload.queries[rec->query].text, trace);
  rec->call_ms = MsSince(origin, Clock::now());
  Result<core::QueryResponse> response = engine.Execute(request);
  rec->return_ms = MsSince(origin, Clock::now());
  rec->done_ms = rec->return_ms;
  rec->explain_ms = rec->return_ms;
  if (!response.ok()) return;
  rec->ok = true;
  rec->hit = response->serving.answer_hit;
  if (bodies != nullptr) rec->body = bodies->Intern(response->result_body);
  if (trace) {
    rec->traced = std::make_unique<TracedOp>(
        TracedOp{response->stats, std::move(response->span)});
  }
}

// -------------------------------------------------------- measurements

struct Phase {
  std::vector<OpRecord> ops;
  BodyTable bodies;
  double seconds = 0.0;  // first call to last completion
  double cpu_ms = 0.0;
  double rss_mb = 0.0;
  Clock::time_point origin;
  /// Kernel slices of every request-sending thread, sorted by time.
  std::vector<std::pair<double, double>> speed;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  // ingest only
  std::vector<OpenLoopRecord> schedule;
  struct Write {
    double due_ms = 0.0, start_ms = 0.0, done_ms = 0.0;
    double factor = 1.0;  // the writer thread's speed around the write
    bool extend = false;
    bool ok = false;
  };
  std::vector<Write> writes;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

double CounterDelta(const Phase& phase, const char* name) {
  const auto* a = phase.after.Find(name);
  const auto* b = phase.before.Find(name);
  return (a != nullptr ? a->value : 0.0) - (b != nullptr ? b->value : 0.0);
}

/// A histogram's observations within the phase.
obs::MetricsSnapshot::Metric HistogramDelta(const Phase& phase,
                                            const char* name) {
  obs::MetricsSnapshot::Metric delta;
  const auto* a = phase.after.Find(name);
  const auto* b = phase.before.Find(name);
  if (a == nullptr) return delta;
  delta = *a;
  if (b != nullptr && b->buckets.size() == a->buckets.size()) {
    delta.count -= b->count;
    delta.sum -= b->sum;
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i].count -= b->buckets[i].count;
    }
  }
  return delta;
}

/// The latency-ordered position of a percentile, checked against the
/// ops' cost classes: the share of the ops around that rank belonging
/// to the most common class there. Near 1 means the percentile sits
/// inside one class; near 0.5 means at a boundary between two.
struct MixPoint {
  std::string cls;
  double purity = 0.0;
};

MixPoint MixAt(const std::vector<std::pair<double, std::string>>& sorted,
               double pct) {
  MixPoint point;
  if (sorted.empty()) return point;
  const size_t n = sorted.size();
  const size_t rank = NearestRank(n, pct) - 1;
  const size_t half = std::max<size_t>(3, n / 200);
  const size_t lo = rank > half ? rank - half : 0;
  const size_t hi = std::min(n, rank + half + 1);
  std::map<std::string, size_t> counts;
  for (size_t i = lo; i < hi; ++i) ++counts[sorted[i].second];
  for (const auto& [cls, count] : counts) {
    double share = static_cast<double>(count) / static_cast<double>(hi - lo);
    if (share > point.purity) point = {cls, share};
  }
  return point;
}

/// Write latencies at the reference speed, plus the measured ones.
struct WriteProbe {
  std::vector<double> extend_ms;
  std::vector<double> rule_ms;
  std::vector<double> extend_raw_ms;
};

/// Applies the first `count` writes of the seeded sequence to `engine`,
/// timing each call.
WriteProbe ApplyWrites(core::Trinit& engine, const Inputs& in, size_t count) {
  WriteProbe probe;
  for (size_t j = 0; j < count && j < in.writes.size(); ++j) {
    double raw = 0.0;
    if (in.write_is_extend[j]) {
      probe.extend_ms.push_back(ScaledMs(
          [&] { Check(engine.ExtendKg(in.writes[j]), "ExtendKg"); }, &raw));
      probe.extend_raw_ms.push_back(raw);
    } else {
      probe.rule_ms.push_back(ScaledMs([&] {
        Check(engine.AddManualRules(in.writes[j]), "AddManualRules");
      }));
    }
  }
  return probe;
}

/// Restart timings at the reference speed (`restart_raw_ms` measured).
struct RestartProbe {
  std::vector<double> restart_ms;  // Open + first answer
  std::vector<double> restart_raw_ms;
  std::vector<double> save_ms;
  std::vector<double> open_ms;
  storage::LoadReport report;
};

/// Opens the snapshot at `path` mapped and trusted and answers
/// `first_query`, recording both times as measured (the caller scales
/// them); returns the engine.
EnginePtr Restart(const std::string& path, const std::string& first_query,
                  RestartProbe* probe) {
  auto t0 = Clock::now();
  auto engine = std::make_unique<core::Trinit>(
      Take(core::Trinit::Open(path, MappedOptions(), &probe->report),
           "Trinit::Open(snapshot)"));
  auto t1 = Clock::now();
  Take(engine->Execute(Request(first_query, false)), "first answer");
  probe->open_ms.push_back(MsSince(t0, t1));
  probe->restart_ms.push_back(MsSince(t0, Clock::now()));
  probe->restart_raw_ms.push_back(probe->restart_ms.back());
  return engine;
}

/// Scales the latest open and restart times of `probe` by `factor`.
void ScaleLastRestart(double factor, RestartProbe* probe) {
  probe->open_ms.back() *= factor;
  probe->restart_ms.back() *= factor;
}

/// Save + restart of `engine`, repeated; the restarted engines are
/// dropped.
void ProbeRestart(const core::Trinit& engine, const std::string& path,
                  const std::string& first_query, RestartProbe* probe) {
  for (int rep = 0; rep < kRestartReps; ++rep) {
    const double before = QuietFactor();
    auto t0 = Clock::now();
    Check(engine.Save(path), "Save");
    const double save_ms = MsSince(t0, Clock::now());
    Restart(path, first_query, probe);
    const double factor = (before + QuietFactor()) / 2.0;
    probe->save_ms.push_back(save_ms * factor);
    ScaleLastRestart(factor, probe);
  }
  std::filesystem::remove(path);
}

double Ndcg5(const core::Trinit& engine, const Inputs& in, size_t query,
             const topk::TopKResult& result) {
  const std::string& id = in.workload.queries[query].id;
  std::vector<int> grades;
  for (const std::string& key : eval::KeysFromResult(engine.xkg(), result)) {
    grades.push_back(in.workload.qrels.Grade(id, key));
  }
  return eval::NdcgAtK(grades, in.workload.qrels.IdealGrades(id), 5);
}

/// Answers of the reference engine, computed once per distinct query.
struct ReferenceAnswers {
  std::map<size_t, std::string> bytes;
  std::map<size_t, double> ndcg5;
};

const std::string& ReferenceFor(const core::Trinit& reference,
                                const Inputs& in, size_t query,
                                ReferenceAnswers* answers) {
  auto it = answers->bytes.find(query);
  if (it != answers->bytes.end()) return it->second;
  auto response = Take(
      reference.Execute(Request(in.workload.queries[query].text, false)),
      "reference Execute");
  answers->ndcg5[query] = Ndcg5(reference, in, query, response.result());
  return answers->bytes[query] = AnswerBytes(response.result());
}

/// Compares every op's answers with the reference's, serially.
void CheckOps(const core::Trinit& reference, const Inputs& in,
              const std::vector<OpRecord>& ops, const BodyTable& bodies,
              ReferenceAnswers* answers, Report* report) {
  std::vector<std::string> rendered(bodies.bodies.size());
  for (size_t i = 0; i < rendered.size(); ++i) {
    rendered[i] = AnswerBytes(*bodies.bodies[i]);
  }
  for (const OpRecord& op : ops) {
    if (!op.ok) continue;
    if (rendered[op.body] != ReferenceFor(reference, in, op.query, answers)) {
      ++report->mismatches;
      if (report->mismatches <= 3) {
        std::printf("MISMATCH query %s: %s\n",
                    in.workload.queries[op.query].id.c_str(),
                    in.workload.queries[op.query].text.c_str());
      }
    }
  }
}

// ------------------------------------------------------------ workloads

struct Run {
  Args args;
  Inputs in;
  EnginePtr sut;
  EnginePtr reference;
  std::vector<double> setup_s;      // at the reference speed
  std::vector<double> setup_raw_s;  // as measured
  BuildSplit split;
  RestartProbe restart;
  WriteProbe writes;
  Phase phase;
  ReferenceAnswers ref_answers;
  std::vector<double> ndcg_samples;
  Report report;
  std::string snapshot_path;

  explicit Run(const Args& a) : args(a) {}
};

/// explore/ingest set-up: FromWorld repeated; the first build is the
/// engine under test, the second (answer cache off) the reference.
void SetUpBuilt(Run* run) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double raw_ms = 0.0;
    double scaled_ms = ScaledMs(
        [&] {
          if (rep == 1 && run->args.trace) {
            run->reference =
                BuildInPieces(run->in.world, ReferenceOptions(), &run->split);
            return;
          }
          EnginePtr engine = Build(
              run->in.world, rep == 1 ? ReferenceOptions() : SutOptions());
          if (rep == 0) run->sut = std::move(engine);
          if (rep == 1) run->reference = std::move(engine);
        },
        &raw_ms);
    run->setup_s.push_back(scaled_ms / 1e3);
    run->setup_raw_s.push_back(raw_ms / 1e3);
    if (run->args.trace && rep == 1) break;  // set-up time is not reported
  }
  malloc_trim(0);
}

/// serve-zipf set-up: FromWorld, Save, then a restart from the snapshot
/// mapped and trusted. The first FromWorld engine (answer cache off)
/// stays as the reference; its restarted twin is the engine under test.
void SetUpRestarted(Run* run, const std::string& first_query) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::string path =
        run->args.scratch + "/serve-" + std::to_string(rep) + ".snap";
    const double before = QuietFactor();
    auto t0 = Clock::now();
    EnginePtr built;
    if (rep == 0 && run->args.trace) {
      built = BuildInPieces(run->in.world, ReferenceOptions(), &run->split);
    } else {
      built = Build(run->in.world, ReferenceOptions());
    }
    auto t1 = Clock::now();
    Check(built->Save(path), "Save");
    auto t2 = Clock::now();
    EnginePtr restarted = Restart(path, first_query, &run->restart);
    const double factor = (before + QuietFactor()) / 2.0;
    // Set-up ends with the open; the first answer is restart_ms's.
    const double raw_s = (MsSince(t0, t2) + run->restart.open_ms.back()) / 1e3;
    run->setup_raw_s.push_back(raw_s);
    run->setup_s.push_back(raw_s * factor);
    run->restart.save_ms.push_back(MsSince(t1, t2) * factor);
    ScaleLastRestart(factor, &run->restart);
    if (rep == 0) {
      run->reference = std::move(built);
      run->sut = std::move(restarted);
      run->snapshot_path = path;
    } else {
      restarted.reset();
      std::filesystem::remove(path);
    }
    if (run->args.trace) break;
  }
  malloc_trim(0);
}

void StartPhase(Run* run) {
  run->phase.before = run->sut->MetricsSnapshot();
  run->phase.cpu_ms = CpuMs();
}

void EndPhase(Run* run, Clock::time_point origin,
              const std::vector<SpeedProbe>& probes) {
  run->phase.origin = origin;
  for (const SpeedProbe& probe : probes) {
    run->phase.speed.insert(run->phase.speed.end(), probe.samples().begin(),
                            probe.samples().end());
  }
  std::sort(run->phase.speed.begin(), run->phase.speed.end());
  run->phase.cpu_ms = CpuMs() - run->phase.cpu_ms;
  run->phase.after = run->sut->MetricsSnapshot();
  run->phase.rss_mb = RssMb();
  double first = 1e300;
  double last = 0.0;
  for (const OpRecord& op : run->phase.ops) {
    first = std::min(first, op.due_ms >= 0.0 ? op.due_ms : op.call_ms);
    last = std::max(last, op.done_ms);
  }
  run->phase.seconds = run->phase.ops.empty() ? 0.0 : (last - first) / 1e3;
}

void RunExplore(Run* run) {
  Inputs& in = run->in;
  SetUpBuilt(run);
  // Warm shapes and plans with queries the timed phase never sends, so
  // the answer cache cannot hit during it.
  std::map<std::string, size_t> warmed;
  size_t warm_begin = in.order.size();
  while (warm_begin > 0) {
    size_t q = in.order[warm_begin - 1];
    size_t& count = warmed[in.workload.queries[q].archetype];
    if (count >= kWarmPerArchetype && warmed.size() >= 6) break;
    --warm_begin;
    if (count < kWarmPerArchetype) {
      ++count;
      Take(run->sut->Execute(Request(in.workload.queries[q].text, false)),
           "warm-up");
    }
  }
  const bool trace = run->args.trace;
  const auto origin = Clock::now();
  const double end_ms = run->args.seconds * 1e3;
  std::vector<SpeedProbe> probes(1, SpeedProbe(origin));
  StartPhase(run);
  for (size_t i = 0; i < warm_begin; ++i) {
    probes[0].MaybeProbe(kProbeEveryMs);
    if (MsSince(origin, Clock::now()) >= end_ms) break;
    OpRecord rec;
    rec.query = static_cast<uint32_t>(in.order[i]);
    ExecuteInto(*run->sut, in, trace, origin, &run->phase.bodies, &rec);
    if (rec.ok) {
      const topk::TopKResult& result = *run->phase.bodies.bodies[rec.body];
      if (!result.answers.empty()) {
        explain::Explanation explanation = run->sut->Explain(result, 0);
        (void)explanation;
      }
      rec.explain_ms = MsSince(origin, Clock::now());
      auto parsed = query::Parser::Parse(in.workload.queries[rec.query].text,
                                         &run->sut->xkg().dict());
      if (parsed.ok()) {
        auto suggestions = run->sut->Suggest(*parsed, result);
        (void)suggestions;
      } else {
        rec.ok = false;
      }
      rec.done_ms = MsSince(origin, Clock::now());
    }
    run->phase.ops.push_back(std::move(rec));
  }
  EndPhase(run, origin, probes);
}

void RunServeZipf(Run* run) {
  Inputs& in = run->in;
  const size_t pool = std::min(kServePool, in.order.size());
  SetUpRestarted(run, RestartQuery(in));
  // Warm shapes, plans and the answer cache: every pool query once,
  // coldest rank first, so the LRU starts holding the hottest ranks.
  {
    std::vector<core::QueryRequest> requests;
    for (size_t r = pool; r-- > 0;) {
      requests.push_back(Request(in.workload.queries[in.order[r]].text, false));
    }
    for (auto& response : run->sut->ExecuteBatch(requests)) {
      if (!response.ok()) Die("warm-up: " + response.status().ToString());
    }
  }
  const int clients = std::max(
      1, std::min<int>(kServeMaxClients,
                       static_cast<int>(std::thread::hardware_concurrency())));
  ZipfSampler zipf(pool, kServeZipfExponent);
  std::vector<std::vector<OpRecord>> per_client(clients);
  std::vector<BodyTable> client_bodies(clients);
  const bool trace = run->args.trace;
  const auto origin = Clock::now();
  std::vector<SpeedProbe> probes(clients, SpeedProbe(origin));
  const double end_ms = run->args.seconds * 1e3;
  StartPhase(run);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(SubSeed(run->args.seed, 100 + c));
      auto& ops = per_client[c];
      while (MsSince(origin, Clock::now()) < end_ms) {
        probes[c].MaybeProbe(kProbeEveryMs);
        OpRecord rec;
        rec.query = static_cast<uint32_t>(in.order[zipf.Sample(rng)]);
        ExecuteInto(*run->sut, in, trace, origin, &client_bodies[c], &rec);
        ops.push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    for (OpRecord& op : per_client[c]) {
      if (op.ok) {
        op.body = run->phase.bodies.Intern(client_bodies[c].bodies[op.body]);
      }
      run->phase.ops.push_back(std::move(op));
    }
  }
  EndPhase(run, origin, probes);
}

void RunIngest(Run* run) {
  Inputs& in = run->in;
  const size_t pool = std::min(kIngestPool, in.order.size());
  SetUpBuilt(run);
  const size_t total_reads = static_cast<size_t>(
      std::ceil(kIngestReadsPerSecond * run->args.seconds - 1e-9));
  ZipfSampler zipf(pool, kIngestZipfExponent);
  std::mt19937_64 rng(SubSeed(run->args.seed, 3));
  std::vector<OpRecord>& ops = run->phase.ops;
  ops.resize(total_reads);
  for (OpRecord& op : ops) {
    op.query = static_cast<uint32_t>(in.order[zipf.Sample(rng)]);
  }
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int readers = std::max(1, std::min(3, hw - 1));
  const bool trace = run->args.trace;
  // No warm-up: ingest's users pay the first-touch sorts after every
  // write, and the first ones as well.
  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  std::vector<SpeedProbe> probes(readers, SpeedProbe(origin));
  StartPhase(run);
  std::thread writer([&] {
    for (size_t j = 0; j < in.writes.size(); ++j) {
      Phase::Write w;
      w.due_ms = (static_cast<double>(j) + 0.5) * kWriteEveryMs;
      if (w.due_ms >= run->args.seconds * 1e3) break;
      w.extend = in.write_is_extend[j];
      // The writer's own speed, probed in its idle time before the write
      // and right after it.
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           w.due_ms - 30.0)));
      const double before = QuietFactor();
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(w.due_ms)));
      w.start_ms = MsSince(origin, Clock::now());
      Status status = w.extend ? run->sut->ExtendKg(in.writes[j])
                               : run->sut->AddManualRules(in.writes[j]);
      w.done_ms = MsSince(origin, Clock::now());
      w.ok = status.ok();
      w.factor = (before + QuietFactor()) / 2.0;
      run->phase.writes.push_back(w);
    }
  });
  run->phase.schedule = RunOpenLoop(
      kIngestReadsPerSecond, run->args.seconds, readers, origin,
      [&](size_t i) {
        // Only final-state answers are checked on ingest; no bodies kept.
        ExecuteInto(*run->sut, in, trace, origin, nullptr, &ops[i]);
        return ops[i].ok;
      },
      [&](int worker) { probes[worker].MaybeProbe(kProbeEveryMs); },
      kIngestSpinMs);
  writer.join();
  double spin_cpu_ms = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].due_ms = run->phase.schedule[i].due_ms;
    spin_cpu_ms += run->phase.schedule[i].spin_cpu_ms;
  }
  EndPhase(run, origin, probes);
  run->phase.cpu_ms -= spin_cpu_ms;
}

// ------------------------------------------------------------ reporting

void CheckAnswers(Run* run) {
  Report& report = run->report;
  const Inputs& in = run->in;
  for (const OpRecord& op : run->phase.ops) {
    ++report.attempted;
    if (!op.ok) ++report.failed;
  }
  if (run->args.workload == "ingest") {
    // Replay the same writes serially on the reference, then compare
    // the final state's answers for the whole pool.
    ApplyWrites(*run->reference, in, run->phase.writes.size());
    for (const auto& w : run->phase.writes) {
      if (!w.ok) ++report.failed;
    }
    const size_t pool = std::min(kIngestPool, in.order.size());
    std::vector<core::QueryRequest> requests;
    for (size_t r = 0; r < pool; ++r) {
      requests.push_back(Request(in.workload.queries[in.order[r]].text, false));
    }
    auto finals = run->sut->ExecuteBatch(requests);
    for (size_t r = 0; r < pool; ++r) {
      size_t q = in.order[r];
      const std::string& expected =
          ReferenceFor(*run->reference, in, q, &run->ref_answers);
      if (!finals[r].ok() || AnswerBytes(finals[r]->result()) != expected) {
        ++report.mismatches;
        if (report.mismatches <= 3) {
          std::printf("MISMATCH final state %s: %s\n",
                      in.workload.queries[q].id.c_str(),
                      in.workload.queries[q].text.c_str());
        }
      }
      run->ndcg_samples.push_back(run->ref_answers.ndcg5[q]);
    }
  } else {
    CheckOps(*run->reference, in, run->phase.ops, run->phase.bodies,
             &run->ref_answers, &report);
    // Quality of the distinct queries answered, each counted once: a
    // Zipf-weighted mean would hinge on a handful of hot queries.
    for (const auto& [query, ndcg] : run->ref_answers.ndcg5) {
      run->ndcg_samples.push_back(ndcg);
    }
  }
  report.failed += report.mismatches;
  report.correct = report.failed == 0;
}

/// A read that waited at least this long on a write is in the stalled
/// cost class (a rule addition holds the lock for microseconds).
constexpr double kStalledClassMs = 1.0;

std::string ClassOf(const Run& run, const OpRecord& op, double stall_ms) {
  if (!op.ok) return "failed";
  if (stall_ms >= kStalledClassMs) return "stalled";
  std::string cls = CostClass(run.in.workload.queries[op.query].archetype);
  if (run.args.workload == "explore") return cls;
  return op.hit ? "hit" : "miss-" + cls;
}

/// Per read: does [due or call, done] overlap a write, and by how long.
std::vector<double> StallOverlapMs(const Run& run) {
  std::vector<double> overlap(run.phase.ops.size(), 0.0);
  for (size_t i = 0; i < run.phase.ops.size(); ++i) {
    const OpRecord& op = run.phase.ops[i];
    const double lo = op.due_ms >= 0.0 ? op.due_ms : op.call_ms;
    for (const auto& w : run.phase.writes) {
      double a = std::max(lo, w.start_ms);
      double b = std::min(op.done_ms, w.done_ms);
      if (b > a) overlap[i] += b - a;
    }
  }
  return overlap;
}

/// Speed factor of the phase at `t_ms` (see kReferenceSliceMs).
double PhaseFactor(const Phase& phase, double t_ms) {
  return SpeedFactor(phase.speed, t_ms, kSpeedWindowMs, kSpeedMinSamples,
                     kReferenceSliceMs);
}

void EndToEndMetrics(Run* run) {
  const Phase& phase = run->phase;
  Report& report = run->report;
  std::vector<double> latency, raw_latency;
  size_t completed = 0;
  for (const OpRecord& op : phase.ops) {
    if (!op.ok) continue;
    const double begin = op.due_ms >= 0.0 ? op.due_ms : op.call_ms;
    raw_latency.push_back(op.latency_ms());
    latency.push_back(op.latency_ms() *
                      PhaseFactor(phase, (begin + op.done_ms) / 2.0));
    ++completed;
  }
  std::vector<double> extend_ms, extend_raw_ms;
  if (run->args.workload == "ingest") {
    for (const auto& w : phase.writes) {
      if (!w.extend) continue;
      extend_raw_ms.push_back(w.done_ms - w.due_ms);
      extend_ms.push_back(extend_raw_ms.back() * w.factor);
    }
  } else {
    extend_ms = run->writes.extend_ms;
    extend_raw_ms = run->writes.extend_raw_ms;
  }
  std::vector<double> slices;
  for (const auto& sample : phase.speed) slices.push_back(sample.second);
  const double factor =
      slices.empty() ? 1.0 : kReferenceSliceMs / Median(slices);
  const double qps = Ratio(static_cast<double>(completed), phase.seconds);
  const double cpu = Ratio(phase.cpu_ms, static_cast<double>(completed));
  std::printf(
      "as measured: setup_s=%.4f latency_p50_ms=%.4f latency_p99_ms=%.3f "
      "throughput_qps=%.2f cpu_ms_per_op=%.4f restart_ms=%.3f "
      "write_p50_ms=%.2f; phase speed factor %.3f over %zu probes\n",
      Median(run->setup_raw_s), Percentile(raw_latency, 0.50),
      Percentile(raw_latency, 0.99), qps, cpu,
      Median(run->restart.restart_raw_ms), Median(extend_raw_ms), factor,
      slices.size());
  report.Add("setup_s", Median(run->setup_s), "s");
  report.Add("latency_p50_ms", Percentile(latency, 0.50), "ms");
  report.Add("latency_p99_ms", Percentile(latency, 0.99), "ms");
  // An open loop completes what it is offered: its throughput is the
  // offered rate while it keeps up, and no machine speed applies.
  report.Add("throughput_qps",
             run->args.workload == "ingest" ? qps : qps / factor, "1/s");
  report.Add("cpu_ms_per_op", cpu * factor, "ms");
  report.Add("ndcg5", Mean(run->ndcg_samples), "ratio");
  report.Add("restart_ms", Median(run->restart.restart_ms), "ms");
  report.Add("write_p50_ms", Median(extend_ms), "ms");
  report.Add("rss_mb", phase.rss_mb, "MB");
}

/// Standalone calls into each layer's public functions on the
/// reference engine (quiesced, answer cache off), so they neither
/// disturb nor warm the engine under test.
struct LayerTimes {
  std::vector<double> parse_us, rewrite_us, rewrites, compile_us,
      compile_join_us, score_ordered_us, answer_ms, explain_us, suggest_us;
};

/// `sample` holds (query, id of the first op that sent it); the spans
/// of a query's standalone calls carry that op's id.
LayerTimes StandaloneLayers(
    Run* run, SpanRecorder* spans,
    const std::vector<std::pair<size_t, int64_t>>& sample) {
  LayerTimes times;
  const core::Trinit& ref = *run->reference;
  const xkg::Xkg& xkg = ref.xkg();
  core::TrinitOptions options = ref.options();
  topk::ProcessorOptions processor = options.processor;
  processor.k = kTopK;
  topk::TopKProcessor topk(xkg, ref.rules(), options.scorer, processor);
  relax::Rewriter rewriter(ref.rules(), processor.rewrite);
  for (const auto& [q, op] : sample) {
    const std::string& text = run->in.workload.queries[q].text;
    auto t0 = Clock::now();
    int root = spans->Add("layers", t0, t0, -1, op);
    auto parsed = query::Parser::Parse(text, &xkg.dict());
    auto t1 = Clock::now();
    spans->Add("query.parse", t0, t1, root, op);
    times.parse_us.push_back(MsSince(t0, t1) * 1e3);
    if (!parsed.ok()) continue;
    const query::Query& query = *parsed;

    auto t2 = Clock::now();
    auto rewrites = rewriter.EnumerateRewrites(query);
    auto t3 = Clock::now();
    spans->Add("relax.rewrite", t2, t3, root, op);
    times.rewrite_us.push_back(MsSince(t2, t3) * 1e3);
    times.rewrites.push_back(static_cast<double>(rewrites.size()));

    auto t4 = Clock::now();
    auto plan = plan::Planner::Compile(query, query::VarTable(query), xkg);
    auto t5 = Clock::now();
    (void)plan;
    spans->Add("plan.compile", t4, t5, root, op);
    times.compile_us.push_back(MsSince(t4, t5) * 1e3);
    if (query.patterns().size() >= 2) {
      times.compile_join_us.push_back(MsSince(t4, t5) * 1e3);
    }

    for (const query::TriplePattern& p : query.patterns()) {
      auto id = [](const query::Term& t) {
        return t.is_variable() ? rdf::kNullTerm : t.id;
      };
      if ((p.s.is_constant() && p.s.id == rdf::kNullTerm) ||
          (p.p.is_constant() && p.p.id == rdf::kNullTerm) ||
          (p.o.is_constant() && p.o.id == rdf::kNullTerm)) {
        continue;  // an unresolved constant has no list to read
      }
      auto a = Clock::now();
      auto list = xkg.store().ScoreOrdered(id(p.s), id(p.p), id(p.o));
      auto b = Clock::now();
      (void)list;
      spans->Add("rdf.score_ordered", a, b, root, op);
      times.score_ordered_us.push_back(MsSince(a, b) * 1e3);
    }

    auto t6 = Clock::now();
    auto answer = topk.Answer(query);
    auto t7 = Clock::now();
    spans->Add("topk.answer", t6, t7, root, op);
    times.answer_ms.push_back(MsSince(t6, t7));

    if (answer.ok()) {
      auto t8 = Clock::now();
      if (!answer->answers.empty()) {
        explain::Explanation explanation = ref.Explain(*answer, 0);
        (void)explanation;
      }
      auto t9 = Clock::now();
      auto suggestions = ref.Suggest(query, *answer);
      (void)suggestions;
      auto t10 = Clock::now();
      spans->Add("explain", t8, t9, root, op);
      spans->Add("suggest", t9, t10, root, op);
      times.explain_us.push_back(MsSince(t8, t9) * 1e3);
      times.suggest_us.push_back(MsSince(t9, t10) * 1e3);
    }
    spans->SetEndMs(root, MsSince(spans->origin(), Clock::now()));
  }
  return times;
}


/// Paired traced/untraced Executes of the same queries on the reference
/// engine, alternating which goes first: the cost of tracing an op
/// (engine span tree plus the benchmark's span recording), in percent.
double TraceOverheadPct(Run* run, const std::vector<size_t>& sample) {
  const core::Trinit& ref = *run->reference;
  SpanRecorder scratch(Clock::now());
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const std::string& text = run->in.workload.queries[sample[i]].text;
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side == 0) == (i % 2 == 0);
      auto t0 = Clock::now();
      auto response = ref.Execute(Request(text, traced));
      if (traced && response.ok() && response->span.has_value()) {
        auto t1 = Clock::now();
        int root = scratch.Add("execute", t0, t1, -1, 0);
        for (const obs::TraceSpan& child : response->span->children) {
          double base = MsSince(scratch.origin(), t0);
          scratch.AddMs("engine." + child.name, base + child.start_ms,
                        base + child.start_ms + child.duration_ms, root, 0);
        }
      }
      (traced ? traced_ms : untraced_ms) += MsSince(t0, Clock::now());
    }
  }
  return untraced_ms > 0.0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0;
}

/// Paraphrase queries replayed with a 1 ms budget: how far past its
/// deadline each returned (p50).
double DeadlineOverrunMs(Run* run, const std::vector<size_t>& distinct) {
  std::vector<double> overrun;
  for (size_t q : distinct) {
    if (overrun.size() >= kDeadlineSample) break;
    if (run->in.workload.queries[q].archetype != "paraphrase") continue;
    core::QueryRequest request =
        Request(run->in.workload.queries[q].text, false);
    request.timeout_ms = 1.0;
    auto t0 = Clock::now();
    auto response = run->reference->Execute(request);
    if (response.ok()) overrun.push_back(MsSince(t0, Clock::now()) - 1.0);
  }
  return Median(overrun);
}

/// Attaches an engine span tree under `parent`; the engine root starts
/// at the Execute call.
void AttachEngineSpan(const obs::TraceSpan& span, double call_ms, int parent,
                      int64_t op, SpanRecorder* spans) {
  int index = spans->AddMs("engine." + span.name, call_ms + span.start_ms,
                           call_ms + span.start_ms + span.duration_ms, parent,
                           op);
  for (const auto& [name, value] : span.counters) {
    spans->AddCounter(index, name, value);
  }
  for (const obs::TraceSpan& child : span.children) {
    // Child offsets are relative to the root's start, like the root's.
    AttachEngineSpan(child, call_ms, index, op, spans);
  }
}

void PerLayerMetrics(Run* run, const MixPoint& p50, const MixPoint& p99) {
  const Phase& phase = run->phase;
  Report& report = run->report;
  const bool explore = run->args.workload == "explore";
  const bool ingest = run->args.workload == "ingest";

  // Spans of the timed phase, built from the op records.
  SpanRecorder spans(phase.origin);
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    const OpRecord& op = phase.ops[i];
    const int64_t id = static_cast<int64_t>(i);
    int root = spans.AddMs("op", op.due_ms >= 0.0 ? op.due_ms : op.call_ms,
                           op.done_ms, -1, id);
    if (op.due_ms >= 0.0) {
      spans.AddMs("client.queue", op.due_ms, op.call_ms, root, id);
    }
    int exec = spans.AddMs("execute", op.call_ms, op.return_ms, root, id);
    if (op.traced != nullptr && op.traced->span.has_value()) {
      AttachEngineSpan(*op.traced->span, op.call_ms, exec, id, &spans);
    }
    if (explore && op.ok) {
      spans.AddMs("explain", op.return_ms, op.explain_ms, root, id);
      spans.AddMs("suggest", op.explain_ms, op.done_ms, root, id);
    }
  }
  for (const auto& w : phase.writes) {
    spans.AddMs(w.extend ? "write.extend_kg" : "write.add_rules", w.start_ms,
                w.done_ms, -1, -1);
  }
  // The phase itself, carrying the registry's counts over it.
  double phase_end_ms = 0.0;
  for (const OpRecord& op : phase.ops) {
    phase_end_ms = std::max(phase_end_ms, op.done_ms);
  }
  int phase_span = spans.AddMs("phase", 0.0, phase_end_ms, -1, -1);
  for (const obs::MetricsSnapshot::Metric& m : phase.after.metrics) {
    if (m.kind == obs::MetricKind::kCounter) {
      spans.AddCounter(phase_span, m.name, CounterDelta(phase, m.name.c_str()));
    }
  }

  // Distinct queries in op order: the standalone-call sample.
  std::vector<size_t> distinct;
  std::vector<std::pair<size_t, int64_t>> sample;
  std::set<size_t> seen;
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    if (!seen.insert(phase.ops[i].query).second) continue;
    distinct.push_back(phase.ops[i].query);
    if (sample.size() < kLayerSample) {
      sample.emplace_back(phase.ops[i].query, static_cast<int64_t>(i));
    }
  }
  SpanRecorder layer_spans(Clock::now());
  LayerTimes layers = StandaloneLayers(run, &layer_spans, sample);
  std::vector<size_t> pairs(
      distinct.begin(),
      distinct.begin() + std::min(kOverheadPairs, distinct.size()));
  const double overhead_pct = TraceOverheadPct(run, pairs);
  const double overrun_ms = DeadlineOverrunMs(run, distinct);
  spans.Merge(layer_spans);

  // Self times and per-op engine work.
  const std::vector<Span>& all = spans.spans();
  std::vector<double> self = SelfTimesMs(all);
  std::vector<double> process_ms, explain_us, suggest_us, hit_us;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == "engine.process") process_ms.push_back(self[i]);
  }
  double ops = 0, hits = 0, pulled = 0, decoded = 0, skipped = 0, tried = 0,
         emitted = 0, fallbacks = 0, alts_open = 0, alts_total = 0,
         variants_eval = 0, variants_total = 0;
  for (const OpRecord& op : phase.ops) {
    if (!op.ok) continue;
    ops += 1;
    if (op.hit) {
      hits += 1;
      hit_us.push_back((op.return_ms - op.call_ms) * 1e3);
    }
    const auto& s = op.traced->stats;
    pulled += static_cast<double>(s.items_pulled);
    decoded += static_cast<double>(s.items_decoded);
    skipped += static_cast<double>(s.items_skipped);
    tried += static_cast<double>(s.combinations_tried);
    emitted += static_cast<double>(s.combinations_emitted);
    fallbacks += static_cast<double>(s.partition_fallbacks);
    alts_open += static_cast<double>(s.alternatives_opened);
    alts_total += static_cast<double>(s.alternatives_total);
    variants_eval += static_cast<double>(s.query_variants_evaluated);
    variants_total += static_cast<double>(s.query_variants_total);
    if (explore) {
      explain_us.push_back((op.explain_ms - op.return_ms) * 1e3);
      suggest_us.push_back((op.done_ms - op.explain_ms) * 1e3);
    }
  }
  if (!explore) {
    explain_us = layers.explain_us;
    suggest_us = layers.suggest_us;
  }

  // Reads beside writes (ingest) and the open-loop client.
  std::vector<double> overlap = StallOverlapMs(*run);
  double stalled = 0, stall_ms = 0, slo_miss = 0, failed = 0;
  std::vector<double> lateness;
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    const OpRecord& op = phase.ops[i];
    if (overlap[i] > 0.0) {
      stalled += 1;
      stall_ms += overlap[i];
    }
    if (!op.ok) failed += 1;
    if (ingest && (!op.ok || op.latency_ms() > kIngestLatencyLimitMs)) {
      slo_miss += 1;
    }
  }
  for (const OpenLoopRecord& r : phase.schedule) {
    lateness.push_back(r.lateness_ms());
  }
  const double attempted = static_cast<double>(phase.ops.size());

  std::vector<double> rebuild_ms, rule_ms;
  if (ingest) {
    for (const auto& w : phase.writes) {
      (w.extend ? rebuild_ms : rule_ms).push_back(w.done_ms - w.start_ms);
    }
  } else {
    rebuild_ms = run->writes.extend_ms;
    rule_ms = run->writes.rule_ms;
  }
  const double plan_hits = CounterDelta(phase, "trinit_plan_cache_hits_total");
  const double plan_misses =
      CounterDelta(phase, "trinit_plan_cache_misses_total");

  report.Add("query.parse_us", Mean(layers.parse_us), "us");
  report.Add("serve.answer_hit_ratio", Ratio(hits, ops), "ratio");
  report.Add("serve.evictions_per_op",
             Ratio(CounterDelta(phase, "trinit_serve_answer_evictions_total"),
                   ops),
             "count");
  report.Add("serve.hit_us", Mean(hit_us), "us");
  report.Add("serve.invalidations",
             CounterDelta(phase, "trinit_serve_invalidations_total"), "count");
  report.Add("relax.rewrites_per_op", Mean(layers.rewrites), "count");
  report.Add("relax.rewrite_us", Mean(layers.rewrite_us), "us");
  report.Add("topk.alternatives_opened_ratio", Ratio(alts_open, alts_total),
             "ratio");
  report.Add("topk.variants_evaluated_ratio",
             Ratio(variants_eval, variants_total), "ratio");
  report.Add("plan.compile_us",
             Mean(layers.compile_join_us.empty() ? layers.compile_us
                                                 : layers.compile_join_us),
             "us");
  report.Add("plan.cache_hit_ratio",
             Ratio(plan_hits, plan_hits + plan_misses), "ratio");
  report.Add("plan.card_log2_error_p50",
             HistogramDelta(phase, "trinit_plan_cardinality_log2_error")
                 .Quantile(0.5),
             "log2");
  report.Add("topk.process_ms", Mean(process_ms), "ms");
  report.Add("topk.answer_ms", Mean(layers.answer_ms), "ms");
  report.Add("topk.pulled_per_op", Ratio(pulled, ops), "count");
  report.Add("topk.decoded_per_op", Ratio(decoded, ops), "count");
  report.Add("topk.decodes_per_pull", Ratio(decoded, pulled), "ratio");
  report.Add("topk.skipped_per_op", Ratio(skipped, ops), "count");
  report.Add("topk.tried_per_pull", Ratio(tried, pulled), "ratio");
  report.Add("topk.emitted_per_tried", Ratio(emitted, tried), "ratio");
  report.Add("topk.partition_fallbacks", Ratio(fallbacks, ops), "count");
  report.Add("rdf.shape_builds",
             CounterDelta(phase, "trinit_rdf_score_shape_builds_total"),
             "count");
  report.Add("rdf.shape_sort_ms",
             HistogramDelta(phase, "trinit_rdf_score_shape_sort_ms").sum,
             "ms");
  report.Add("rdf.score_ordered_us", Mean(layers.score_ordered_us), "us");
  report.Add("storage.save_ms", Median(run->restart.save_ms), "ms");
  report.Add("storage.open_ms", Median(run->restart.open_ms), "ms");
  report.Add("storage.bytes_touched",
             static_cast<double>(run->restart.report.bytes_touched), "bytes");
  report.Add("storage.snapshot_bytes",
             static_cast<double>(run->restart.report.bytes), "bytes");
  report.Add("xkg.rebuild_ms", Mean(rebuild_ms), "ms");
  report.Add("relax.rule_add_ms", Mean(rule_ms), "ms");
  report.Add("openie.pipeline_s", run->split.pipeline_s, "s");
  report.Add("xkg.build_s", run->split.xkg_s, "s");
  report.Add("relax.mine_s", run->split.mine_s, "s");
  report.Add("core.stalled_read_ratio", Ratio(stalled, attempted), "ratio");
  report.Add("core.stall_wait_ms", Ratio(stall_ms, stalled), "ms");
  report.Add("core.deadline_overrun_ms", overrun_ms, "ms");
  report.Add("explain.us", Mean(explain_us), "us");
  report.Add("suggest.us", Mean(suggest_us), "us");
  report.Add("obs.trace_overhead_pct", overhead_pct, "%");
  report.Add("client.lateness_p99_ms", Percentile(lateness, 0.99), "ms");
  report.Add("client.fail_ratio", Ratio(failed, attempted), "ratio");
  report.Add("client.slo_miss_ratio", Ratio(slo_miss, attempted), "ratio");
  report.Add("mix.p50_purity", p50.purity, "ratio");
  report.Add("mix.p99_purity", p99.purity, "ratio");

  std::string path = run->args.scratch + "/trace-" + run->args.workload +
                     "-seed" + std::to_string(run->args.seed) + ".jsonl";
  std::ofstream out(path);
  out << spans.ToJsonLines();
  std::printf("spans: %zu written to %s\n", all.size(), path.c_str());
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "explore" && args.workload != "serve-zipf" &&
      args.workload != "ingest") {
    Die("--workload must be explore, serve-zipf or ingest");
  }
  if (!have_seed || !have_trace || !(args.seconds > 0.0) ||
      args.scratch.empty()) {
    Die("usage: perfbench --workload <w> --seed <n> --seconds <s> "
        "--trace <0|1> --scratch <dir>");
  }
  return args;
}

int Main(int argc, char** argv) {
  Run run(ParseArgs(argc, argv));
  const Args& args = run.args;
  std::filesystem::create_directories(args.scratch);
  const size_t ingest_writes = static_cast<size_t>(
      std::ceil(args.seconds * 1e3 / kWriteEveryMs - 0.5));
  run.in = MakeInputs(args.seed,
                      std::max<size_t>(ingest_writes, kProbeWrites));
  if (run.in.order.size() < kServePool) Die("query pool too small");

  if (args.workload == "explore") {
    RunExplore(&run);
  } else if (args.workload == "serve-zipf") {
    RunServeZipf(&run);
  } else {
    RunIngest(&run);
  }

  if (args.workload != "serve-zipf") {
    ProbeRestart(*run.sut, args.scratch + "/restart.snap",
                 RestartQuery(run.in), &run.restart);
  }
  CheckAnswers(&run);
  if (args.workload != "ingest") {
    run.writes = ApplyWrites(*run.sut, run.in, kProbeWrites);
  }

  // Where p50 and p99 fall among the ops' cost classes.
  std::vector<double> overlap = StallOverlapMs(run);
  std::vector<std::pair<double, std::string>> sorted;
  for (size_t i = 0; i < run.phase.ops.size(); ++i) {
    const OpRecord& op = run.phase.ops[i];
    sorted.emplace_back(op.latency_ms(), ClassOf(run, op, overlap[i]));
  }
  std::sort(sorted.begin(), sorted.end());
  MixPoint p50 = MixAt(sorted, 0.50);
  MixPoint p99 = MixAt(sorted, 0.99);
  std::map<std::string, size_t> classes;
  for (const auto& entry : sorted) ++classes[entry.second];
  std::printf("workload %s seed %llu: %zu ops, %zu beyond p99;",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), sorted.size(),
              SamplesBeyond(sorted.size(), 0.99));
  for (const auto& [cls, count] : classes) {
    std::printf(" %s=%.3f", cls.c_str(),
                static_cast<double>(count) /
                    static_cast<double>(sorted.size()));
  }
  std::printf("\nmix check: p50 in %s (purity %.2f), p99 in %s (purity %.2f)\n",
              p50.cls.c_str(), p50.purity, p99.cls.c_str(), p99.purity);
  if (SamplesBeyond(sorted.size(), 0.99) < 10) {
    std::printf("warning: fewer than 10 samples beyond p99\n");
  }

  if (args.trace) {
    PerLayerMetrics(&run, p50, p99);
  } else {
    EndToEndMetrics(&run);
  }
  if (!run.snapshot_path.empty()) std::filesystem::remove(run.snapshot_path);
  if (run.report.mismatches > 0) {
    std::printf("%llu answer mismatches against the reference\n",
                static_cast<unsigned long long>(run.report.mismatches));
  }
  std::printf("%s\n", ResultJson(run.report.correct, run.report.attempted,
                                 run.report.failed, run.report.metrics)
                          .c_str());
  std::fflush(stdout);
  return run.report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
