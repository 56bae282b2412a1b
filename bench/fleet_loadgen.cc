// Load generator for a sharded park fleet (docs/OPERATIONS.md): N worker
// threads each own a FleetRouter over the same FleetMap and fire a
// zipfian RiskMap/CellCurves mix at 3..K local paws_serve daemons,
// verifying every response bit-exactly against the rolled-out artifact.
// This is the binary the CI fleet smoke runs while killing one replica
// mid-window: the run must finish with zero client-visible errors and a
// non-zero failover count.
//
//   fleet_loadgen --endpoints H:P,H:P,... [--replicas R] [--parks N]
//                 [--bootstrap] [--connections N] [--seconds S] [--smoke]
//                 [--zipf-s S] [--json PATH] [--min-req-per-s R]
//                 [--map PATH] [--map-out PATH] [--expect-failovers]
//
//   --endpoints        comma-separated daemon addresses (the shard fleet)
//   --replicas         replicas per park in the FleetMap (default 2)
//   --parks            park population, ids park-0..park-(N-1) (default 100)
//   --bootstrap        train one artifact and FleetAdmin-roll it out to
//                      every park id before measuring (daemons may start
//                      empty: paws_serve --parks 0); also enables the
//                      bit-identity check against the local artifact
//   --connections      worker threads, one FleetRouter each (default 8)
//   --seconds          measurement window (default 5; --smoke: 2)
//   --zipf-s           zipf exponent over the park population (default 1.1)
//   --json PATH        merge a "fleet_serving" section into PATH
//   --min-req-per-s    exit non-zero below this throughput (CI floor)
//   --map PATH         load the FleetMap artifact instead of building one
//   --map-out PATH     write the (built or loaded) FleetMap artifact
//   --expect-failovers exit non-zero if no failover happened — the CI
//                      kill-a-replica run asserts the failure was actually
//                      exercised, not silently skipped
//   --resize-endpoints comma-separated *new* daemon addresses: mid-window,
//                      FleetAdmin::MigrateParks moves parks onto the new
//                      set (pull → push → verify), publishes the bumped
//                      FleetMap, and the routers hot-reload it via the
//                      kMapVersion handshake — all under load
//   --resize-after     seconds into the window to trigger the resize
//                      (default: half the window)
//   --expect-reload    exit non-zero unless every router converged on the
//                      new map version without restart
//
// Exit status is non-zero on any client-visible error (transport
// exhaustion, application status, bit-identity mismatch), zero completed
// requests, a missed throughput floor, --expect-failovers without a
// failover, or a failed/unconverged resize.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/pipeline.h"
#include "fleet/fleet_admin.h"
#include "fleet/fleet_map.h"
#include "fleet/fleet_router.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

using namespace paws;

using Clock = std::chrono::steady_clock;

struct WorkerResult {
  std::vector<double> latencies_us;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
};

std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int PickZipf(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->Uniform();
  return static_cast<int>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

// One small artifact shared by every park id: fleet routing, failover and
// bit-identity are per-park-id properties, not per-model ones, so a
// single fast-to-train model keeps bootstrap cheap at 100+ parks.
std::string TrainBootstrapSnapshot(bool smoke) {
  Scenario scenario = MakeScenario(ParkPreset::kMfnp, /*seed=*/17);
  scenario.park.width = smoke ? 24 : 30;
  scenario.park.height = smoke ? 20 : 24;
  scenario.num_years = 3;
  ScenarioData data = SimulateScenario(scenario, 100);
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = smoke ? 3 : 4;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = smoke ? 4 : 5;
  PawsPipeline pipeline(std::move(data), cfg);
  Rng rng(7);
  CheckOrDie(pipeline.Train(&rng).ok(), "fleet_loadgen: training failed");
  ArchiveWriter writer;
  pipeline.SaveModel(&writer);
  return writer.Bytes();
}

StatusOr<std::vector<FleetEndpoint>> ParseEndpoints(const std::string& spec) {
  std::vector<FleetEndpoint> endpoints;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    PAWS_ASSIGN_OR_RETURN(FleetEndpoint endpoint, FleetEndpoint::Parse(item));
    endpoints.push_back(std::move(endpoint));
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoints_spec;
  std::string resize_endpoints_spec;
  std::string map_path;
  std::string map_out_path;
  std::string json_path;
  int replicas = 2;
  int parks = 100;
  int connections = 8;
  double seconds = 5.0;
  double resize_after = -1.0;
  bool smoke = false;
  bool bootstrap = false;
  bool expect_failovers = false;
  bool expect_reload = false;
  double zipf_s = 1.1;
  double min_req_per_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--endpoints") == 0 && i + 1 < argc) {
      endpoints_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--map") == 0 && i + 1 < argc) {
      map_path = argv[++i];
    } else if (std::strcmp(argv[i], "--map-out") == 0 && i + 1 < argc) {
      map_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replicas = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--parks") == 0 && i + 1 < argc) {
      parks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--bootstrap") == 0) {
      bootstrap = true;
    } else if (std::strcmp(argv[i], "--expect-failovers") == 0) {
      expect_failovers = true;
    } else if (std::strcmp(argv[i], "--resize-endpoints") == 0 &&
               i + 1 < argc) {
      resize_endpoints_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--resize-after") == 0 && i + 1 < argc) {
      resize_after = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--expect-reload") == 0) {
      expect_reload = true;
    } else if (std::strcmp(argv[i], "--zipf-s") == 0 && i + 1 < argc) {
      zipf_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-req-per-s") == 0 && i + 1 < argc) {
      min_req_per_s = std::atof(argv[++i]);
    } else {
      std::fprintf(
          stderr,
          "usage: %s --endpoints H:P,H:P,... [--replicas R] [--parks N] "
          "[--bootstrap] [--connections N] [--seconds S] [--smoke] "
          "[--zipf-s S] [--json PATH] [--min-req-per-s R] [--map PATH] "
          "[--map-out PATH] [--expect-failovers] "
          "[--resize-endpoints H:P,...] [--resize-after S] "
          "[--expect-reload]\n",
          argv[0]);
      return 2;
    }
  }
  if (smoke) seconds = std::min(seconds, 2.0);
  CheckOrDie(connections >= 1 && parks >= 1 && replicas >= 1,
             "fleet_loadgen: bad arguments");

  // The FleetMap: loaded artifact or built from --endpoints. Either way
  // it can be persisted with --map-out for the daemons' operators.
  FleetMap map = [&] {
    if (!map_path.empty()) {
      auto loaded = FleetMap::ReadFile(map_path);
      CheckOrDie(loaded.ok(), "fleet_loadgen: --map load failed");
      return std::move(loaded).value();
    }
    CheckOrDie(!endpoints_spec.empty(),
               "fleet_loadgen: --endpoints or --map is required");
    auto endpoints = ParseEndpoints(endpoints_spec);
    CheckOrDie(endpoints.ok(), "fleet_loadgen: bad --endpoints");
    auto built = FleetMap::Create(std::move(endpoints).value(), replicas);
    CheckOrDie(built.ok(), "fleet_loadgen: FleetMap build failed");
    return std::move(built).value();
  }();
  if (!map_out_path.empty()) {
    CheckOrDie(map.WriteFile(map_out_path).ok(),
               "fleet_loadgen: --map-out write failed");
  }

  std::vector<std::string> park_ids;
  park_ids.reserve(parks);
  for (int p = 0; p < parks; ++p) {
    park_ids.push_back("park-" + std::to_string(p));
  }

  // Local reference results for the bit-identity check: what the pushed
  // artifact itself computes for the request menu the workers use.
  const double efforts[] = {1.0, 2.0, 3.0};
  const std::vector<int> curve_cells = {0, 1, 2, 3};
  const std::vector<double> curve_grid = {0.0, 1.0, 2.0, 3.0};
  std::vector<RiskMaps> want_risk;
  EffortCurveTable want_curves;
  if (bootstrap) {
    std::printf("training bootstrap artifact...\n");
    std::fflush(stdout);
    const std::string snapshot_bytes = TrainBootstrapSnapshot(smoke);
    auto snapshot = ModelSnapshot::FromBytes(snapshot_bytes);
    CheckOrDie(snapshot.ok(), "fleet_loadgen: artifact decode failed");
    for (double effort : efforts) {
      want_risk.push_back(snapshot->PredictRisk(effort));
    }
    want_curves = snapshot->PredictCellCurves(curve_cells, curve_grid);

    std::printf("rolling out to %d parks x %d replicas...\n", parks,
                map.replication());
    std::fflush(stdout);
    FleetAdmin admin(&map);
    for (const std::string& park_id : park_ids) {
      const RolloutReport report =
          admin.RolloutSnapshot(park_id, snapshot_bytes);
      if (!report.ok) {
        for (const auto& replica : report.replicas) {
          if (!replica.push.ok() || !replica.verify.ok()) {
            std::fprintf(
                stderr, "fleet_loadgen: rollout of '%s' to %s failed: %s\n",
                park_id.c_str(),
                map.endpoints()[replica.endpoint_index].ToString().c_str(),
                (!replica.push.ok() ? replica.push : replica.verify)
                    .ToString()
                    .c_str());
          }
        }
        return 1;
      }
    }
  }

  const bool resize = !resize_endpoints_spec.empty();
  const std::vector<double> cdf = ZipfCdf(parks, zipf_s);
  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(connections);
  std::vector<std::unique_ptr<FleetRouter>> routers;
  routers.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    FleetRouterOptions router_options;
    // During a resize run the routers poll the fleet's published map
    // version so the hot reload happens through the same handshake
    // production routers use — no restart, no out-of-band channel.
    if (resize) router_options.map_refresh_ms = 100;
    routers.push_back(std::make_unique<FleetRouter>(map, router_options));
  }

  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto bench_start = Clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      WorkerResult& result = results[c];
      FleetRouter& router = *routers[c];
      Rng rng(4321 + static_cast<uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        const int park = PickZipf(cdf, &rng);
        const std::string& park_id = park_ids[park];
        // ~90% risk maps, ~10% curve tables — the read mix the
        // single-daemon loadgen uses, minus its Stats sprinkle (fleet
        // stats are per-endpoint, asked once at the end).
        const double mix = rng.Uniform();
        const auto t0 = Clock::now();
        bool ok;
        bool identical = true;
        if (mix < 0.90) {
          const int e = rng.UniformInt(3);
          const auto got = router.RiskMap(park_id, efforts[e]);
          ok = got.ok();
          if (ok && bootstrap) {
            identical = got->risk == want_risk[e].risk &&
                        got->variance == want_risk[e].variance;
          }
        } else {
          const auto got = router.CellCurves(park_id, curve_cells, curve_grid);
          ok = got.ok();
          if (ok && bootstrap) {
            identical = got->prob == want_curves.prob &&
                        got->variance == want_curves.variance;
          }
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        if (ok && identical) {
          result.latencies_us.push_back(us);
        } else if (!ok) {
          result.errors += 1;
        } else {
          result.mismatches += 1;
        }
      }
    });
  }
  bool resize_ok = true;
  uint64_t resized_version = map.version();
  if (resize) {
    if (resize_after < 0.0 || resize_after >= seconds) {
      resize_after = seconds / 2.0;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(resize_after));

    auto added = ParseEndpoints(resize_endpoints_spec);
    CheckOrDie(added.ok(), "fleet_loadgen: bad --resize-endpoints");
    // --resize-endpoints lists the ADDED daemons; the grown map keeps
    // every current endpoint so consistent hashing moves ~1/N of the
    // parks, not all of them.
    std::vector<FleetEndpoint> grown = map.endpoints();
    grown.insert(grown.end(), added->begin(), added->end());
    auto new_map = FleetMap::Create(std::move(grown), replicas,
                                    map.version() + 1,
                                    map.vnodes_per_endpoint());
    CheckOrDie(new_map.ok(), "fleet_loadgen: resize FleetMap build failed");
    resized_version = new_map->version();

    std::printf("resizing fleet %d -> %d shards under load...\n",
                map.num_endpoints(), new_map->num_endpoints());
    std::fflush(stdout);
    FleetAdmin admin(&map);
    const MigrationReport migration = admin.MigrateParks(*new_map, park_ids);
    std::printf("  migrated   %zu parks moved, %llu unchanged, "
                "%zu map pushes\n",
                migration.moves.size(),
                static_cast<unsigned long long>(migration.parks_unchanged),
                migration.map_pushes.size());
    if (!migration.ok) {
      resize_ok = false;
      for (const auto& move : migration.moves) {
        if (move.ok) continue;
        std::fprintf(stderr, "fleet_loadgen: move of '%s' failed: %s\n",
                     move.park_id.c_str(), move.pull.ToString().c_str());
        for (const auto& target : move.targets) {
          if (!target.push.ok() || !target.verify.ok()) {
            std::fprintf(
                stderr, "  target %s: %s\n", target.address.c_str(),
                (!target.push.ok() ? target.push : target.verify)
                    .ToString()
                    .c_str());
          }
        }
      }
      for (const auto& push : migration.map_pushes) {
        if (!push.push.ok()) {
          std::fprintf(stderr, "fleet_loadgen: map push to %s failed: %s\n",
                       push.address.c_str(), push.push.ToString().c_str());
        }
      }
    }
    const double remaining = seconds - resize_after;
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
    }
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  stop = true;
  for (auto& thread : threads) thread.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - bench_start).count();

  std::vector<double> latencies;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t failovers = 0;
  uint64_t transport_errors = 0;
  uint64_t exhausted = 0;
  uint64_t map_reloads = 0;
  int routers_converged = 0;
  for (WorkerResult& result : results) {
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    errors += result.errors;
    mismatches += result.mismatches;
  }
  // Shard balance is keyed by address, not index: after a hot reload the
  // routers' endpoint indices belong to the *new* map.
  std::vector<std::string> shard_addresses;
  std::vector<uint64_t> shard_requests;
  auto add_shard = [&](const std::string& address, uint64_t count) {
    for (size_t s = 0; s < shard_addresses.size(); ++s) {
      if (shard_addresses[s] == address) {
        shard_requests[s] += count;
        return;
      }
    }
    shard_addresses.push_back(address);
    shard_requests.push_back(count);
  };
  for (const auto& router : routers) {
    const FleetRouter::Stats stats = router->stats();
    failovers += stats.failovers;
    transport_errors += stats.transport_errors;
    exhausted += stats.exhausted;
    map_reloads += stats.map_reloads;
    if (stats.map_version == resized_version) ++routers_converged;
    const FleetMap router_map = router->map_snapshot();
    for (int e = 0; e < router_map.num_endpoints(); ++e) {
      add_shard(router_map.endpoints()[e].ToString(),
                stats.per_endpoint_requests[e]);
    }
  }
  const uint64_t completed = latencies.size();
  const double req_per_s = wall_s > 0 ? completed / wall_s : 0.0;
  const double p50 = Percentile(&latencies, 0.50);
  const double p99 = Percentile(&latencies, 0.99);

  std::printf(
      "fleet_loadgen: %d workers, %.1f s, zipf(%.2f) over %d parks, "
      "%d shards x%d replicas\n",
      connections, wall_s, zipf_s, parks, map.num_endpoints(),
      map.replication());
  std::printf("  completed  %llu requests (%.0f req/s)\n",
              static_cast<unsigned long long>(completed), req_per_s);
  std::printf("  latency    p50 %.0f us, p99 %.0f us\n", p50, p99);
  std::printf("  errors     %llu client, %llu bit-identity mismatches\n",
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(mismatches));
  std::printf("  failover   %llu failovers, %llu transport errors, "
              "%llu exhausted\n",
              static_cast<unsigned long long>(failovers),
              static_cast<unsigned long long>(transport_errors),
              static_cast<unsigned long long>(exhausted));
  if (resize) {
    std::printf("  resize     %d/%d routers on map v%llu, %llu hot reloads\n",
                routers_converged, connections,
                static_cast<unsigned long long>(resized_version),
                static_cast<unsigned long long>(map_reloads));
  }
  for (size_t s = 0; s < shard_addresses.size(); ++s) {
    std::printf("  shard      %s served %llu\n", shard_addresses[s].c_str(),
                static_cast<unsigned long long>(shard_requests[s]));
  }

  if (!json_path.empty()) {
    std::string shard_json = "[";
    for (size_t s = 0; s < shard_requests.size(); ++s) {
      if (s > 0) shard_json += ",";
      shard_json += std::to_string(shard_requests[s]);
    }
    shard_json += "]";
    char section[1024];
    std::snprintf(
        section, sizeof(section),
        "\"fleet_serving\":{\"shards\":%d,\"replicas\":%d,\"parks\":%d,"
        "\"connections\":%d,\"seconds\":%.3f,\"completed\":%llu,"
        "\"req_per_s\":%.17g,\"p50_us\":%.17g,\"p99_us\":%.17g,"
        "\"errors\":%llu,\"mismatches\":%llu,\"failovers\":%llu,"
        "\"transport_errors\":%llu,\"exhausted\":%llu,"
        "\"map_reloads\":%llu,\"routers_converged\":%d,"
        "\"shard_requests\":%s}",
        map.num_endpoints(), map.replication(), parks, connections, wall_s,
        static_cast<unsigned long long>(completed), req_per_s, p50, p99,
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(failovers),
        static_cast<unsigned long long>(transport_errors),
        static_cast<unsigned long long>(exhausted),
        static_cast<unsigned long long>(map_reloads), routers_converged,
        shard_json.c_str());
    MergeJsonSection(json_path, section);
    std::printf("  json       %s\n", json_path.c_str());
  }

  if (completed == 0) {
    std::fprintf(stderr, "fleet_loadgen: FAIL — no requests completed\n");
    return 1;
  }
  if (errors > 0 || mismatches > 0) {
    std::fprintf(stderr,
                 "fleet_loadgen: FAIL — client-visible errors during the run "
                 "(%llu errors, %llu mismatches)\n",
                 static_cast<unsigned long long>(errors),
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  if (resize && !resize_ok) {
    std::fprintf(stderr,
                 "fleet_loadgen: FAIL — resize migration did not complete\n");
    return 1;
  }
  if (expect_reload && routers_converged != connections) {
    std::fprintf(stderr,
                 "fleet_loadgen: FAIL — only %d/%d routers converged on "
                 "map v%llu\n",
                 routers_converged, connections,
                 static_cast<unsigned long long>(resized_version));
    return 1;
  }
  if (expect_failovers && failovers == 0) {
    std::fprintf(stderr,
                 "fleet_loadgen: FAIL — --expect-failovers but none "
                 "happened (was a replica actually killed?)\n");
    return 1;
  }
  if (min_req_per_s > 0 && req_per_s < min_req_per_s) {
    std::fprintf(stderr, "fleet_loadgen: FAIL — %.0f req/s below floor %.0f\n",
                 req_per_s, min_req_per_s);
    return 1;
  }
  return 0;
}
