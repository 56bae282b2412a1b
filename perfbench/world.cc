#include "world.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using namespace paws;

bool ParseKind(const std::string& name, Kind* out) {
  for (Kind kind : {Kind::kServeCached, Kind::kTilesCold}) {
    if (name == KindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kServeCached:
      return "serve_cached";
    case Kind::kTilesCold:
      return "tiles_cold";
  }
  return "unknown";
}

const std::vector<double> kServeEfforts = {1.0, 2.0, 3.0};
const std::vector<int> kCurveCells = {0, 1, 2, 3};
const std::vector<double> kCurveGrid = {0.0, 1.0, 2.0, 3.0};
const std::vector<double> kTileEfforts = {1.0, 2.0, 3.0, 4.0};

// tiles_cold's writer flips a few tiles per ~100 reads, so cached tiles go
// stale under a steady trickle of field coverage; serve_cached's flips one
// whole park per 1,000 reads, about 20 updates a second, which keeps its
// hit ratio above 99%.
int ReadsPerUpdate(Kind kind) {
  return kind == Kind::kTilesCold ? 100 : 1000;
}
int UnitsPerUpdate(Kind kind) { return kind == Kind::kTilesCold ? 3 : 1; }

uint64_t KeyOf(const Request& request) {
  return (static_cast<uint64_t>(request.op) << 48) |
         (static_cast<uint64_t>(request.park) << 40) |
         (static_cast<uint64_t>(request.tile) << 8) |
         static_cast<uint64_t>(request.effort);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RequestStream::RequestStream(Kind kind, uint64_t seed, int num_tiles)
    : kind_(kind), rng_(seed), num_tiles_(num_tiles) {
  if (kind_ == Kind::kServeCached) {
    double total = 0.0;
    for (int k = 0; k < kServeParks; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

Request RequestStream::Next() {
  Request request;
  switch (kind_) {
    case Kind::kServeCached: {
      const double u = rng_.Uniform();
      request.park = static_cast<int>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      request.park = std::min(request.park, kServeParks - 1);
      const double mix = rng_.Uniform();
      if (mix < 0.90) {
        request.op = Opcode::kRiskMap;
        request.effort =
            rng_.UniformInt(static_cast<int>(kServeEfforts.size()));
      } else if (mix < 0.98) {
        request.op = Opcode::kCellCurves;
      } else {
        request.op = Opcode::kStats;
      }
      break;
    }
    case Kind::kTilesCold:
      request.op = Opcode::kRiskTile;
      request.tile = rng_.UniformInt(num_tiles_);
      request.effort = rng_.UniformInt(static_cast<int>(kTileEfforts.size()));
      break;
  }
  return request;
}

// ----------------------------------------------------- reply fingerprints

namespace {

class Fingerprint {
 public:
  void Bits(uint64_t v) {
    h_ = (h_ ^ v) * 0x9fb21c651e98df25ull;
    h_ ^= h_ >> 29;
  }
  void Int(int64_t v) { Bits(static_cast<uint64_t>(v)); }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bits(bits);
  }
  void Doubles(const std::vector<double>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (double x : v) Double(x);
  }
  void Ints(const std::vector<int>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (int x : v) Int(x);
  }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    for (unsigned char c : s) Bits(c);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ull;
};

}  // namespace

uint64_t HashOf(const RiskMaps& maps) {
  Fingerprint f;
  f.Doubles(maps.risk);
  f.Doubles(maps.variance);
  f.Double(maps.assumed_effort);
  return f.value();
}

uint64_t HashOf(const RiskTile& tile) {
  Fingerprint f;
  f.Int(tile.tile_id);
  f.Ints(tile.cell_ids);
  f.Doubles(tile.risk);
  f.Doubles(tile.variance);
  f.Double(tile.assumed_effort);
  return f.value();
}

uint64_t HashOf(const EffortCurveTable& table) {
  Fingerprint f;
  f.Doubles(table.effort_grid);
  f.Ints(table.qualified_count);
  f.Int(table.num_cells);
  f.Doubles(table.prob);
  f.Doubles(table.variance);
  return f.value();
}

uint64_t HashOf(const ServerStatsReport& report) {
  Fingerprint f;
  f.Int(static_cast<int64_t>(report.parks.size()));
  for (const auto& park : report.parks) {
    f.String(park.park_id);
    f.String(park.scoring_backend);
  }
  return f.value();
}

}  // namespace perfbench
