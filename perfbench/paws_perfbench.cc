// The PAWS serving benchmark. One process hosts a ParkServer on loopback
// and drives it with closed-loop ParkClient connections (each caller waits
// for its reply), then checks every reply bit for bit against the answer of
// an independently built in-process ModelSnapshot.
//
//   paws_perfbench --workload serve_cached|tiles_cold --seed N
//                  --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// request sequence through each layer's public functions, bracketed from
// here, and prints the per-layer metrics. The last stdout line is one JSON
// object (report.h). The exit status is non-zero when any request failed
// or any reply differed from the in-process answer.
#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "measure.h"
#include "ml/exp_lane.h"
#include "report.h"
#include "util/archive.h"
#include "util/cpu_features.h"
#include "world.h"

namespace {

using namespace perfbench;
using paws::ModelSnapshot;

constexpr int kSetupRepeats = 3;

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(double total, size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

void PrintLine(const char* name, double value, const char* unit,
               const std::string& note) {
  std::printf("  %-28s %14.4f %-8s %s\n", name, value, unit, note.c_str());
}

std::string SamplesNote(const Percentile& p) {
  return "(n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
         " beyond)";
}

// Adds a latency percentile to the table and, when `metric_name` is set
// and the percentile has enough samples beyond it, to the result metrics.
void AddPercentile(const char* label, const std::vector<double>& values,
                   double p, const char* metric_name,
                   std::vector<Metric>* metrics) {
  const Percentile pct = TailPercentile(values, p);
  if (!pct.reported) {
    std::printf("  %-28s %14s %-8s omitted: %zu of %zu samples beyond (< %zu)\n",
                label, "-", "us", pct.beyond, pct.samples, kMinSamplesBeyond);
    return;
  }
  PrintLine(label, pct.value, "us", SamplesNote(pct));
  if (metric_name != nullptr) metrics->push_back({metric_name, pct.value, "us"});
}

// Independent in-process snapshots, one per park index.
using References = std::vector<std::unique_ptr<ModelSnapshot>>;

References BuildReferences(Kind kind, const World& world) {
  References refs;
  for (size_t p = 0; p < world.park_ids.size(); ++p) {
    refs.push_back(BuildReferenceSnapshot(kind, world, static_cast<int>(p)));
  }
  return refs;
}

// Records the outcome of every reply: errors, and replies whose
// fingerprint differs from the in-process answer. A reply for a coverage
// unit the writer flipped may match either coverage layer.
void CheckReplies(const World& world, References* refs,
                  const CoverageWriter& writer, const Replies& replies,
                  Tally* tally) {
  std::unordered_map<uint64_t, Request> distinct;
  for (const auto& [key, reply] : replies.seen) {
    distinct.emplace(key.first, reply.request);
  }
  std::unordered_map<uint64_t, std::vector<uint64_t>> allowed;
  for (const auto& [key, request] : distinct) {
    allowed[key].push_back(
        ExpectedHash(*(*refs)[request.park], request, world));
  }
  for (size_t p = 0; p < refs->size(); ++p) {
    ModelSnapshot& reference = *(*refs)[p];
    std::vector<double> layer_b(world.coverage_a[p].size());
    for (size_t c = 0; c < layer_b.size(); ++c) {
      layer_b[c] = CoverageLayerB(static_cast<int>(c));
    }
    reference.UpdateLaggedEffort(std::move(layer_b));
    for (const auto& [key, request] : distinct) {
      if (request.park == static_cast<int>(p) && writer.Touched(request)) {
        allowed[key].push_back(ExpectedHash(reference, request, world));
      }
    }
  }
  for (uint64_t i = 0; i < replies.errors; ++i) tally->Record(Outcome::kError);
  for (const auto& [key, reply] : replies.seen) {
    const std::vector<uint64_t>& ok = allowed[key.first];
    const Outcome outcome = std::find(ok.begin(), ok.end(), key.second) !=
                                    ok.end()
                                ? Outcome::kOk
                                : Outcome::kMismatch;
    for (uint64_t i = 0; i < reply.count; ++i) tally->Record(outcome);
  }
}

void RecordUpdates(size_t ok, int failed, Tally* tally) {
  for (size_t i = 0; i < ok; ++i) tally->Record(Outcome::kOk);
  for (int i = 0; i < failed; ++i) tally->Record(Outcome::kError);
}

struct Args {
  Kind kind = Kind::kServeCached;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseKind(value, &args->kind)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0.0;
}

void PrintFailures(const Tally& tally) {
  PrintLine("failed_frac", tally.failed_frac(), "",
            "(" + std::to_string(tally.errored) + " errored + " +
                std::to_string(tally.mismatched) + " mismatched of " +
                std::to_string(tally.attempted) +
                " attempted reads and updates)");
}

int RunEndToEnd(const Args& args, World* world, double setup_s) {
  const Kind kind = args.kind;
  CoverageWriter writer(kind, *world, DeriveSeed(args.seed, 1000));
  const WindowResult window =
      RunWindow(world, kind, args.seed, args.seconds, false, &writer);
  const double peak_rss_mb = PeakRssMb();

  References refs = BuildReferences(kind, *world);
  Tally tally;
  CheckReplies(*world, &refs, writer, window.replies, &tally);
  RecordUpdates(window.update_us.size(), window.failed_updates, &tally);

  const std::vector<double> latencies = window.OkLatencies();
  std::vector<Metric> metrics;
  std::printf("end-to-end (%d connections, closed loop, %.2f s window):\n",
              kConnections, window.elapsed_s);
  PrintLine("setup_s", setup_s, "s",
            "(median of " + std::to_string(kSetupRepeats) +
                " set-ups, plus the one-time exp-lane proof)");
  metrics.push_back({"setup_s", setup_s, "s"});
  const double ops = static_cast<double>(window.ok_count()) / window.elapsed_s;
  PrintLine("ops_per_s", ops, "1/s",
            "(n=" + std::to_string(window.ok_count()) + " reads)");
  metrics.push_back({"ops_per_s", ops, "1/s"});
  AddPercentile("latency_p50_us", latencies, 0.50, "latency_p50_us", &metrics);
  AddPercentile("latency_p90_us", latencies, 0.90, "latency_p90_us", &metrics);
  AddPercentile("latency_p99_us", latencies, 0.99, nullptr, &metrics);
  AddPercentile("update_p50_us", window.update_us, 0.50, "update_p50_us",
                &metrics);
  PrintFailures(tally);
  PrintLine("peak_rss_mb", peak_rss_mb, "MiB", "");
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  std::printf("%s\n", ResultLine(tally, metrics).c_str());
  return tally.correct() ? 0 : 1;
}

int RunTraced(const Args& args, std::unique_ptr<World> world,
              const std::vector<double>& setup_gen_ms) {
  const Kind kind = args.kind;
  CoverageWriter writer(kind, *world, DeriveSeed(args.seed, 1000));
  const double half = args.seconds / 2.0;
  const WindowResult plain =
      RunWindow(world.get(), kind, args.seed, half, false, &writer);
  const WindowResult traced =
      RunWindow(world.get(), kind, args.seed, half, true, &writer);
  References refs = BuildReferences(kind, *world);

  // In-process replay of the plain window's requests.
  const std::vector<Request> sequence =
      WindowSequence(kind, args.seed, *world, plain);
  LayerSamples layers;
  Replies replayed;
  ReplayLayers(world.get(), sequence, half, &writer, &layers, &replayed);

  // Layer probes on the reference snapshots, before CheckReplies moves
  // them to coverage layer B. The planner is on neither request path; a
  // small plan on the workload's own park times its layers there.
  std::vector<double> gen_ms = setup_gen_ms;
  int plan_reps = 0;
  if (kind == Kind::kTilesCold) {
    std::vector<std::pair<int, double>> tiles;
    for (size_t i = 0; i < sequence.size() && tiles.size() < 256; ++i) {
      tiles.emplace_back(sequence[i].tile, kTileEfforts[sequence[i].effort]);
    }
    ProbeTileLayers(*refs.front(), tiles, &layers);
    plan_reps = 3;
    for (int rep = 0; rep < plan_reps; ++rep) {
      ProbePlanLayers(*refs.front(), 0, 5, &layers);
    }
  } else {
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& reference : refs) {
        std::vector<std::pair<int, double>> tiles;
        for (double effort : kServeEfforts) tiles.emplace_back(0, effort);
        ProbeTileLayers(*reference, tiles, &layers);
      }
    }
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      gen_ms.push_back(TimeSmokeParkGeneration());
    }
    plan_reps = 5;
    for (int rep = 0; rep < plan_reps; ++rep) {
      ProbePlanLayers(*refs[1], 0, 5, &layers);
    }
  }
  // Node and pivot counts of one probe plan: they repeat exactly.
  layers.nodes /= plan_reps;
  layers.pivots /= plan_reps;
  const double milp_us_per_plan = layers.milp_us_total / plan_reps;

  Tally tally;
  Replies all = plain.replies;
  all.Merge(traced.replies);
  all.Merge(replayed);
  CheckReplies(*world, &refs, writer, all, &tally);
  RecordUpdates(
      plain.update_us.size() + traced.update_us.size() +
          layers.update_us.size(),
      plain.failed_updates + traced.failed_updates + layers.failed_updates,
      &tally);

  const double wire_p50 = TailPercentile(plain.OkLatencies(), 0.5).value;
  const double traced_p50 = TailPercentile(traced.OkLatencies(), 0.5).value;
  const double req_enc = Median(layers.request_encode_us);
  const double req_dec = Median(layers.request_decode_us);
  const double call = Median(layers.call_us);
  const double resp_enc = Median(layers.response_encode_us);
  const double resp_dec = Median(layers.response_decode_us);
  double codec_us = 0.0;
  for (size_t i = 0; i < layers.response_encode_us.size(); ++i) {
    codec_us += layers.response_encode_us[i] + layers.response_decode_us[i];
  }
  const size_t replayed_ok = layers.response_encode_us.size();
  const ServiceCounters& a = plain.before;
  const ServiceCounters& b = plain.after;

  // Snapshot load: all smoke archives per repetition; the mega park's
  // archive once, after the served world is gone.
  std::vector<double> load_ms;
  if (kind == Kind::kTilesCold) {
    paws::ArchiveWriter archive;
    refs.front()->Save(&archive);
    const std::string bytes = archive.Bytes();
    world.reset();
    refs.clear();
    const auto t0 = Clock::now();
    paws::CheckOrDie(ModelSnapshot::FromBytes(bytes).ok(),
                     "perfbench: snapshot load failed");
    load_ms.push_back(UsBetween(t0, Clock::now()) / 1000.0);
  } else {
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (const std::string& bytes : world->snapshot_bytes) {
        paws::CheckOrDie(ModelSnapshot::FromBytes(bytes).ok(),
                         "perfbench: snapshot load failed");
      }
      load_ms.push_back(UsBetween(t0, Clock::now()) / 1000.0);
    }
  }

  auto lookups = [](uint64_t hits0, uint64_t misses0, uint64_t hits1,
                    uint64_t misses1) {
    return static_cast<double>(hits1 + misses1 - hits0 - misses0);
  };
  const std::vector<Metric> metrics = {
      {"net.request_encode_us", req_enc, "us"},
      {"net.request_decode_us", req_dec, "us"},
      {"net.response_encode_us", resp_enc, "us"},
      {"net.response_decode_us", resp_dec, "us"},
      {"net.response_bytes", Mean(layers.response_bytes_total, replayed_ok),
       "bytes"},
      {"net.roundtrip_overhead_us",
       wire_p50 - (req_enc + req_dec + call + resp_enc + resp_dec), "us"},
      {"net.frames_in",
       static_cast<double>(plain.net_after.frames_in -
                           plain.net_before.frames_in),
       "count"},
      {"net.protocol_errors",
       static_cast<double>(traced.net_after.protocol_errors), "count"},
      {"util.crc32_ns_per_byte",
       layers.response_bytes_total > 0
           ? layers.crc_ns / layers.response_bytes_total
           : 0.0,
       "ns/byte"},
      {"util.crc32_share",
       codec_us > 0 ? 2.0 * layers.crc_ns / 1e3 / codec_us : 0.0, "ratio"},
      {"util.crc32_share_base_us", Mean(codec_us, replayed_ok), "us"},
      {"util.snapshot_load_ms", Median(load_ms), "ms"},
      {"serve.call_us", call, "us"},
      {"serve.risk_hit_ratio",
       Ratio(b.risk_hits - a.risk_hits, b.risk_misses - a.risk_misses),
       "ratio"},
      {"serve.risk_lookups",
       lookups(a.risk_hits, a.risk_misses, b.risk_hits, b.risk_misses),
       "count"},
      {"serve.curve_hit_ratio",
       Ratio(b.curve_hits - a.curve_hits, b.curve_misses - a.curve_misses),
       "ratio"},
      {"serve.curve_lookups",
       lookups(a.curve_hits, a.curve_misses, b.curve_hits, b.curve_misses),
       "count"},
      {"serve.tile_hit_ratio",
       Ratio(b.tile_hits - a.tile_hits, b.tile_misses - a.tile_misses),
       "ratio"},
      {"serve.tile_lookups",
       lookups(a.tile_hits, a.tile_misses, b.tile_hits, b.tile_misses),
       "count"},
      {"serve.update_us", Median(layers.update_us), "us"},
      {"core.predict_tile_us", Median(layers.predict_tile_us), "us"},
      {"geo.tile_materialize_us", Median(layers.materialize_us), "us"},
      {"geo.pool_hit_ratio",
       Ratio(b.pool_hits - a.pool_hits, b.pool_misses - a.pool_misses),
       "ratio"},
      {"geo.pool_lookups",
       lookups(a.pool_hits, a.pool_misses, b.pool_hits, b.pool_misses),
       "count"},
      {"geo.pool_evictions",
       static_cast<double>(b.pool_evictions - a.pool_evictions), "count"},
      {"geo.pool_resident_mb",
       static_cast<double>(b.pool_resident_bytes) / (1 << 20), "MiB"},
      {"geo.mega_park_gen_ms", Median(gen_ms), "ms"},
      {"ml.score_ns_per_cell",
       layers.score_cells > 0 ? layers.score_ns / layers.score_cells : 0.0,
       "ns/cell"},
      {"plan.graph_us", Median(layers.graph_us), "us"},
      {"plan.curves_us", Median(layers.curves_us), "us"},
      {"plan.utility_us", Median(layers.utility_us), "us"},
      {"solver.milp_ms", Median(layers.milp_ms), "ms"},
      {"solver.nodes", static_cast<double>(layers.nodes), "count"},
      {"solver.pivots", static_cast<double>(layers.pivots), "count"},
      {"solver.us_per_pivot",
       layers.pivots > 0
           ? milp_us_per_plan / static_cast<double>(layers.pivots)
           : 0.0,
       "us"},
      {"trace.overhead_p50_us", traced_p50 - wire_p50, "us"},
  };
  std::printf("per-layer (in-process replay of %zu requests; wire p50 %.2f us "
              "untraced, %.2f us traced):\n",
              layers.call_us.size(), wire_p50, traced_p50);
  for (const Metric& m : metrics) {
    PrintLine(m.name.c_str(), m.value, m.unit.c_str(), "");
  }
  for (const auto& [opcode, values] : layers.call_us_by_opcode) {
    PrintLine(("serve.call_us[" + opcode + "]").c_str(), Median(values), "us",
              "(n=" + std::to_string(values.size()) + ")");
  }
  PrintFailures(tally);
  std::printf("%s\n", ResultLine(tally, metrics).c_str());
  return tally.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_cached|tiles_cold "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }

  // One-time process start-up: the exp-lane replay proof.
  const auto proof_start = Clock::now();
  paws::internal::GetVectorKernelTail(paws::ActiveSimdTier());
  const double proof_s = UsBetween(proof_start, Clock::now()) / 1e6;

  std::unique_ptr<World> world;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    world.reset();
    double seconds = 0.0;
    world = SetupWorld(args.kind, &seconds);
    setup_s.push_back(seconds);
    if (args.kind == Kind::kTilesCold) gen_ms.push_back(world->park_gen_ms);
  }

  const char* force = std::getenv("PAWS_FORCE_BACKEND");
  std::printf(
      "host: cpu=\"%s\" nproc=%d simd=%s (detected %s, PAWS_FORCE_BACKEND=%s) "
      "build=%s\n",
      CpuModel().c_str(), Nproc(), paws::SimdTierName(paws::ActiveSimdTier()),
      paws::SimdTierName(paws::DetectSimdTier()),
      force != nullptr ? force : "unset", PERFBENCH_BUILD_TYPE);
  for (const std::string& id : world->park_ids) {
    const auto backend = world->service->ScoringBackendName(id);
    std::printf("park %s: scoring_backend=%s\n", id.c_str(),
                backend.ok() ? backend->c_str() : "unknown");
  }
  std::printf("workload %s: seed %llu, %.1f s, trace %d\n",
              KindName(args.kind), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  if (args.trace) return RunTraced(args, std::move(world), gen_ms);
  return RunEndToEnd(args, world.get(), proof_s + Median(setup_s));
}
