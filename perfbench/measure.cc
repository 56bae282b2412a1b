#include "measure.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

using namespace paws;

CoverageWriter::CoverageWriter(Kind kind, const World& world, uint64_t seed)
    : world_(&world),
      per_tile_(kind == Kind::kTilesCold),
      reads_per_update_(ReadsPerUpdate(kind)),
      units_per_update_(UnitsPerUpdate(kind)),
      rng_(seed),
      current_(world.coverage_a),
      layer_(world.units.size(), 0),
      touched_(world.units.size(), 0) {}

double CoverageWriter::Update(World* world) {
  const std::vector<int> picked = rng_.SampleWithoutReplacement(
      static_cast<int>(world_->units.size()), units_per_update_);
  // Units of one update always share a park (tiles of the mega park, or a
  // single smoke park), so one UpdateCoverage installs them.
  const int park = world_->units[picked.front()].park;
  for (int u : picked) {
    const World::CoverageUnit& unit = world_->units[u];
    CheckOrDie(unit.park == park, "perfbench: update spans parks");
    layer_[u] ^= 1;
    touched_[u] = 1;
    for (int cell : unit.cells) {
      current_[park][cell] =
          layer_[u] ? CoverageLayerB(cell) : world_->coverage_a[park][cell];
    }
  }
  std::vector<double> next = current_[park];
  const auto t0 = Clock::now();
  const Status status =
      world->service->UpdateCoverage(world->park_ids[park], std::move(next));
  const double us = UsBetween(t0, Clock::now());
  return status.ok() ? us : -1.0;
}

ServiceCounters ReadCounters(const World& world) {
  ServiceCounters c;
  for (const std::string& id : world.park_ids) {
    const auto risk = world.service->RiskCacheStats(id);
    const auto curve = world.service->CurveCacheStats(id);
    const auto tile = world.service->RiskTileStats(id);
    CheckOrDie(risk.ok() && curve.ok() && tile.ok(),
               "perfbench: service stats failed");
    c.risk_hits += risk->hits;
    c.risk_misses += risk->misses;
    c.curve_hits += curve->hits;
    c.curve_misses += curve->misses;
    c.tile_hits += tile->hits;
    c.tile_misses += tile->misses;
    c.pool_hits += tile->pool.hits;
    c.pool_misses += tile->pool.misses;
    c.pool_evictions += tile->pool.evictions;
    c.pool_resident_bytes += tile->pool.resident_bytes;
  }
  return c;
}

void Replies::Add(const Request& request, const StatusOr<uint64_t>& hash) {
  if (!hash.ok()) {
    ++errors;
    return;
  }
  Seen& seen_reply = seen[{KeyOf(request), *hash}];
  seen_reply.request = request;
  ++seen_reply.count;
}

void Replies::Merge(const Replies& other) {
  errors += other.errors;
  for (const auto& [key, reply] : other.seen) {
    Seen& mine = seen[key];
    mine.request = reply.request;
    mine.count += reply.count;
  }
}

std::vector<double> WindowResult::OkLatencies() const {
  std::vector<double> out;
  for (const auto& latencies : latencies_ns) {
    for (uint32_t ns : latencies) out.push_back(ns / 1e3);
  }
  return out;
}

uint64_t WindowResult::ok_count() const {
  uint64_t n = 0;
  for (const auto& latencies : latencies_ns) n += latencies.size();
  return n;
}

std::vector<Request> WindowSequence(Kind kind, uint64_t seed,
                                    const World& world,
                                    const WindowResult& window) {
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < window.issued.size(); ++c) {
    streams.emplace_back(kind, DeriveSeed(seed, c), world.num_tiles);
  }
  std::vector<Request> sequence;
  for (uint64_t i = 0;; ++i) {
    bool any = false;
    for (size_t c = 0; c < streams.size(); ++c) {
      if (i < window.issued[c]) {
        sequence.push_back(streams[c].Next());
        any = true;
      }
    }
    if (!any) return sequence;
  }
}

namespace {

// The traced client: the typed client's three steps, each bracketed.
StatusOr<uint64_t> IssueTraced(WireClient* wire, const Request& request,
                               const World& world,
                               std::vector<double>* spans) {
  const auto t0 = Clock::now();
  std::string payload = EncodeRequest(request, world);
  const auto t1 = Clock::now();
  StatusOr<Frame> response = wire->Call(request.op, std::move(payload));
  const auto t2 = Clock::now();
  if (!response.ok()) return response.status();
  if (response->opcode == static_cast<uint32_t>(Opcode::kStatusResponse)) {
    Status carried;
    PAWS_RETURN_IF_ERROR(DecodeStatusPayload(response->payload, &carried));
    return carried.ok() ? Status::Internal("status frame carrying OK")
                        : carried;
  }
  if (response->opcode != static_cast<uint32_t>(Opcode::kOkResponse)) {
    return Status::Internal("unexpected response opcode");
  }
  StatusOr<uint64_t> hash = DecodeReplyHash(request.op, response->payload);
  const auto t3 = Clock::now();
  spans->push_back(UsBetween(t0, t1));
  spans->push_back(UsBetween(t1, t2));
  spans->push_back(UsBetween(t2, t3));
  return hash;
}

}  // namespace

WindowResult RunWindow(World* world, Kind kind, uint64_t seed, double seconds,
                       bool traced, CoverageWriter* writer) {
  const int connections = static_cast<int>(world->clients.size());
  WindowResult result;
  result.issued.resize(connections);
  result.latencies_ns.resize(connections);
  std::vector<Replies> replies(connections);
  std::vector<std::unique_ptr<WireClient>> wires;
  if (traced) {
    for (int c = 0; c < connections; ++c) {
      wires.push_back(std::make_unique<WireClient>());
      CheckOrDie(wires.back()->Connect("127.0.0.1", world->server->port()).ok(),
                 "perfbench: connect failed");
    }
  }
  // Spans are kept in memory for the whole window, as a tracer would.
  std::vector<std::vector<double>> spans(connections);

  std::atomic<uint64_t> reads{0};
  std::mutex writer_mu;
  std::condition_variable writer_cv;
  bool clients_done = false;

  result.before = ReadCounters(*world);
  result.net_before = world->server->net_stats();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::thread writer_thread;
  if (writer != nullptr) {
    writer_thread = std::thread([&] {
      uint64_t next = writer->reads_per_update();
      std::unique_lock<std::mutex> lock(writer_mu);
      while (true) {
        writer_cv.wait(lock, [&] {
          return clients_done || reads.load() >= next;
        });
        if (clients_done) break;
        lock.unlock();
        const double us = writer->Update(world);
        if (us >= 0.0) {
          result.update_us.push_back(us);
        } else {
          ++result.failed_updates;
        }
        next += writer->reads_per_update();
        lock.lock();
      }
    });
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      RequestStream stream(kind, DeriveSeed(seed, c), world->num_tiles);
      while (Clock::now() < deadline) {
        const Request request = stream.Next();
        const auto t0 = Clock::now();
        const StatusOr<uint64_t> hash =
            traced ? IssueTraced(wires[c].get(), request, *world, &spans[c])
                   : IssueOverClient(world->clients[c].get(), request, *world);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0)
                            .count();
        ++result.issued[c];
        if (hash.ok()) {
          result.latencies_ns[c].push_back(static_cast<uint32_t>(
              std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max())));
        }
        replies[c].Add(request, hash);
        if (writer != nullptr &&
            (reads.fetch_add(1) + 1) % writer->reads_per_update() == 0) {
          std::lock_guard<std::mutex> lock(writer_mu);
          writer_cv.notify_one();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.elapsed_s = UsBetween(start, Clock::now()) / 1e6;
  for (const Replies& r : replies) result.replies.Merge(r);
  if (writer != nullptr) {
    {
      std::lock_guard<std::mutex> lock(writer_mu);
      clients_done = true;
    }
    writer_cv.notify_one();
    writer_thread.join();
  }
  result.net_after = world->server->net_stats();
  result.after = ReadCounters(*world);
  return result;
}

}  // namespace perfbench
