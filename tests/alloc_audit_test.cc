// Hot-path allocation audit. The serving contract is that a warm
// ParkService::RiskTile hit — the request the tile LRU exists to make
// cheap — performs ZERO heap allocations on the calling thread, and that
// a steady-state miss (scratch buffers already warmed) allocates the same
// bounded count every time instead of drifting, and a feature-tile pool
// miss allocates as much for a full tile as for a small one, and the
// largest allocation of a planning graph does not grow with the park. The
// wire decoders are audited too: a hostile element count may not size an
// allocation.
//
// The audit instruments the global allocator: this TU replaces the
// replaceable global operator new/delete family with malloc-backed
// versions that bump a thread_local counter while a thread_local gate is
// set. The gate is per-thread, so background threads (server pollers,
// fan-out workers) never perturb a measurement; with the gate down the
// replacements are a plain malloc forward, so the rest of the test binary
// is unaffected.
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "core/snapshot.h"
#include "fleet/fleet_map.h"
#include "geo/tiled_feature_plane.h"
#include "net/fault_injector.h"
#include "net/wire.h"
#include "plan/graph.h"
#include "serve/park_service.h"
#include "solver/simplex.h"
#include "util/archive.h"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;
thread_local std::size_t t_largest = 0;

void Record(std::size_t size) {
  if (!t_counting) return;
  ++t_allocs;
  if (size > t_largest) t_largest = size;
}

void* CountedAlloc(std::size_t size) {
  Record(size);
  void* ptr = std::malloc(size ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  Record(size);
  void* ptr = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&ptr, align, size ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  Record(size);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  Record(size);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace paws {
namespace {

template <typename Fn>
std::uint64_t CountAllocations(Fn&& fn) {
  t_allocs = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocs;
}

// The largest single allocation `fn` makes on this thread.
template <typename Fn>
std::size_t LargestAllocation(Fn&& fn) {
  t_largest = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_largest;
}

class AllocAuditTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario scenario = MakeScenario(ParkPreset::kMfnp, 3);
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
    ScenarioData data = SimulateScenario(scenario, 5);
    IWareConfig cfg;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.bagging.num_estimators = 4;
    IWareEnsemble model(cfg);
    Rng rng(7);
    const Dataset train = BuildDataset(data.park, data.history);
    CheckOrDie(model.Fit(train, &rng).ok(), "fixture fit failed");
    const std::vector<double> lagged =
        data.history.steps[data.num_steps() - 2].effort;
    TiledPlaneOptions options;
    options.tile_size = 8;
    park_ = new Park(data.park);
    service_ = new ParkService();
    CheckOrDie(service_
                   ->Register("p", ModelSnapshot(std::move(model), data.park,
                                                 lagged, options))
                   .ok(),
               "fixture register failed");
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
    delete park_;
    park_ = nullptr;
  }
  static ParkService* service_;
  static Park* park_;
};

ParkService* AllocAuditTest::service_ = nullptr;
Park* AllocAuditTest::park_ = nullptr;

// The warm path: once a tile result sits in the served-tile LRU, the next
// request for the same key is a map find plus a list splice plus a
// shared_ptr refcount bump — none of which may touch the heap.
TEST_F(AllocAuditTest, WarmRiskTileHitAllocatesNothing) {
  const std::string park_id = "p";
  ASSERT_TRUE(service_->RiskTile(park_id, 0, 2.0).ok());  // prime the LRU
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t allocs = CountAllocations([&] {
      const auto tile = service_->RiskTile(park_id, 0, 2.0);
      CheckOrDie(tile.ok(), "warm hit failed");
    });
    EXPECT_EQ(allocs, 0u) << "warm hit " << i << " touched the heap";
  }
}

// The event thread's probe of the same warm key: try-locks, a key built
// on the stack, a lookup and a refcount bump — no heap either.
TEST_F(AllocAuditTest, WarmTryCachedRiskTileHitAllocatesNothing) {
  const std::string park_id = "p";
  ASSERT_TRUE(service_->RiskTile(park_id, 0, 2.0).ok());  // prime the LRU
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t allocs = CountAllocations([&] {
      const auto tile = service_->TryCachedRiskTile(
          park_id, 0, 2.0, [](const RiskTile&) { return true; });
      CheckOrDie(tile != nullptr, "warm probe missed");
    });
    EXPECT_EQ(allocs, 0u) << "warm probe " << i << " touched the heap";
  }
}

// Rejected requests take the early-return path before any computation;
// the only heap traffic allowed is the Status error message itself (one
// string, too long for the small-string buffer).
TEST_F(AllocAuditTest, RangeCheckRejectionAllocatesOnlyTheErrorMessage) {
  const std::string park_id = "p";
  ASSERT_FALSE(service_->RiskTile(park_id, 1 << 20, 2.0).ok());
  const std::uint64_t allocs = CountAllocations([&] {
    const auto tile = service_->RiskTile(park_id, 1 << 20, 2.0);
    CheckOrDie(!tile.ok(), "range check did not reject");
  });
  EXPECT_LE(allocs, 2u);
}

// The cold path allocates (the tile result, its cache slot, pool fills),
// but steady state must be FLAT: after the per-thread scoring scratch is
// warm, every further miss allocates the same count — a drift here is a
// hot-loop allocation regression.
TEST_F(AllocAuditTest, SteadyStateMissAllocationCountIsFlat) {
  const std::string park_id = "p";
  // Warm the thread's scoring scratch and the feature-tile pool; distinct
  // efforts make distinct cache keys, so each call is a genuine miss.
  ASSERT_TRUE(service_->RiskTile(park_id, 0, 50.0).ok());
  ASSERT_TRUE(service_->RiskTile(park_id, 0, 51.0).ok());
  std::vector<std::uint64_t> counts;
  for (int i = 0; i < 4; ++i) {
    const double effort = 60.0 + i;
    counts.push_back(CountAllocations([&] {
      const auto tile = service_->RiskTile(park_id, 0, effort);
      CheckOrDie(tile.ok(), "steady-state miss failed");
    }));
  }
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0])
        << "miss " << i << " allocation count drifted";
  }
  // A miss does real work; the audit itself is live if this is non-zero.
  EXPECT_GT(counts[0], 0u);
}

// A feature-tile pool miss builds the tile, its id list and its row block,
// and writes each cell's row in place, so its allocation count does not
// grow with the tile's cells. A 1-byte budget makes each fresh plane's
// GetTile a miss; the fullest tile at two tile sizes must allocate alike.
TEST_F(AllocAuditTest, PoolMissAllocationCountIsIndependentOfTileCells) {
  std::vector<size_t> cells;
  std::vector<std::uint64_t> counts;
  for (const int tile_size : {8, 16}) {
    TiledPlaneOptions options;
    options.tile_size = tile_size;
    options.pool_budget_bytes = 1;
    const TiledFeaturePlane plane(*park_, {}, options);
    int fullest = 0;
    std::vector<int> ids;
    size_t most = 0;
    for (int t = 0; t < plane.num_tiles(); ++t) {
      plane.TileCellIds(*park_, t, &ids);
      if (ids.size() > most) {
        most = ids.size();
        fullest = t;
      }
    }
    cells.push_back(most);
    counts.push_back(CountAllocations([&] {
      const auto tile = plane.GetTile(*park_, fullest);
      CheckOrDie(tile->cell_ids.size() == most, "pool miss lost cells");
    }));
  }
  ASSERT_LT(cells[0], cells[1]);
  EXPECT_EQ(counts[0], counts[1])
      << "a " << cells[0] << "-cell miss made " << counts[0]
      << " allocations, a " << cells[1] << "-cell miss " << counts[1];
  EXPECT_GT(counts[0], 0u);
}

// The planner searches a few dozen cells around a post; its scratch must
// be sized by that graph, not by the park. At 1M cells a park-sized int
// array is 4 MB per call.
TEST_F(AllocAuditTest, PlanningGraphScratchDoesNotGrowWithParkSize) {
  std::vector<std::size_t> largest;
  for (const int side : {32, 512}) {
    const Park park("open", GridB(side, side, 1));
    const Cell post{side / 2, side / 2};
    PlanningGraph graph;
    largest.push_back(
        LargestAllocation([&] { graph = BuildPlanningGraph(park, post, 4); }));
    ASSERT_EQ(graph.num_cells(), 41);  // the radius-4 diamond
  }
  EXPECT_EQ(largest[0], largest[1])
      << "a 32x32 park's graph made a " << largest[0]
      << "-byte allocation, a 512x512 park's " << largest[1];
}

// A 12,000-row LP whose dense tableau would take 3.2 GiB: SolveLp refuses
// it from the model's counts, so nothing it allocates is near that size
// (the refusal's message is the only heap traffic).
TEST(SolverAllocAuditTest, OversizedTableauIsRefusedBeforeItIsAllocated) {
  LinearProgram lp;
  for (int i = 0; i < 12000; ++i) {
    const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
    lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  }
  StatusCode code = StatusCode::kOk;
  const std::size_t largest =
      LargestAllocation([&] { code = SolveLp(lp).status().code(); });
  EXPECT_EQ(code, StatusCode::kResourceExhausted);
  EXPECT_LT(largest, 1024u) << "SolveLp made a " << largest
                            << "-byte allocation before refusing";
}

// A CRC-valid `tag` section: the fields `prefix` writes, then an element
// count, then `body` bytes of 0xff, on which the first element fails to
// parse (a string length or an ok flag no payload can satisfy).
std::string HostileArchive(uint32_t tag, void (*prefix)(ArchiveWriter*),
                           uint64_t count, size_t body) {
  ArchiveWriter writer;
  writer.BeginSection(tag);
  prefix(&writer);
  writer.WriteU64(count);
  for (size_t i = 0; i < body; ++i) writer.WriteU8(0xff);
  writer.EndSection();
  return writer.Bytes();
}

// The decoders refuse a count the bytes cannot hold, but a count they can
// hold is still unproven until its elements parse: reserving from it let
// one 64 MiB response ask a client for gigabytes. Each archive claims the
// most elements its count bound admits (8 and 96 bytes per element, in the
// order below) and breaks on the first.
TEST(WireDecodeAllocAuditTest, HostileCountsAllocateAtMostTwiceThePayload) {
  constexpr size_t kBody = 64 << 10;
  struct Case {
    const char* tag;
    std::string payload;
    Status (*decode)(const std::string&);
  };
  const Case cases[] = {
      {"RQRP",
       HostileArchive(
           FourCc("RQRP"), [](ArchiveWriter* w) { w->WriteString("pk"); },
           kBody / 8, kBody),
       [](const std::string& p) { return DecodeRepairRequest(p).status(); }},
      {"RSST",
       HostileArchive(
           FourCc("RSST"),
           [](ArchiveWriter* w) {
             for (int i = 0; i < 7; ++i) w->WriteU64(i);
           },
           kBody / 96, kBody),
       [](const std::string& p) {
         return DecodeStatsReportPayload(p).status();
       }},
  };
  for (const Case& c : cases) {
    Status decoded;
    const std::size_t largest =
        LargestAllocation([&] { decoded = c.decode(c.payload); });
    EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument) << c.tag;
    EXPECT_LE(largest, 2 * c.payload.size()) << c.tag;
  }
}

// A CRC-valid `tag` section: the fields `prefix` writes, the largest
// element count the remaining bytes admit (one byte per element), a
// malformed first element written by `first`, then 0xff filler up to
// `body` bytes (on which no element parses either).
std::string HostileRecord(uint32_t tag, void (*prefix)(ArchiveWriter*),
                          void (*first)(ArchiveWriter*), size_t body) {
  ArchiveWriter element;
  first(&element);
  ArchiveWriter writer;
  writer.BeginSection(tag);
  prefix(&writer);
  writer.WriteU64(body);
  first(&writer);
  for (size_t i = element.payload_size(); i < body; ++i) writer.WriteU8(0xff);
  writer.EndSection();
  return writer.Bytes();
}

template <typename T>
Status LoadFromBytes(const std::string& bytes, T blank) {
  return FromArchiveBytes(bytes, &blank);
}

// The archive loaders share one count guard: an element count is bounded
// by the bytes left, and nothing is reserved from it, so a hostile count
// costs no more memory than the elements that actually parse. Each
// archive claims the most elements its bound admits and breaks on the
// first.
TEST(ArchiveLoadAllocAuditTest, HostileCountsAllocateAtMostTwiceTheArchive) {
  constexpr size_t kBody = 64 << 10;
  const auto bad_tag = [](ArchiveWriter* w) { w->WriteU32(FourCc("NOPE")); };
  const auto bad_string = [](ArchiveWriter* w) { w->WriteU64(~0ull); };
  using Learner = std::unique_ptr<Classifier>;
  struct Case {
    const char* what;
    std::string bytes;
    Status (*load)(const std::string&);
  };
  const Case cases[] = {
      {"BAGG members",
       HostileRecord(
           FourCc("BAGG"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(BaggingConfig{}, w);
             SaveRecord(DecisionTree(), w);  // base-learner prototype
           },
           bad_tag, kBody),
       [](const std::string& b) { return LoadFromBytes(b, Learner()); }},
      {"IWAR learners",
       HostileRecord(
           FourCc("IWAR"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(IWareConfig{}, w);
             SaveRecord(true, w);  // fitted
             SaveRecord(std::vector<double>{0.0}, w);  // thresholds
             SaveRecord(std::vector<double>{1.0}, w);  // weights
           },
           bad_tag, kBody),
       [](const std::string& b) {
         return LoadFromBytes(b, IWareEnsemble(IWareConfig{}));
       }},
      {"TREE nodes",
       HostileRecord(
           FourCc("TREE"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(DecisionTreeConfig{}, w);
           },
           [](ArchiveWriter* w) {  // neither a leaf nor a forward split
             SaveRecord(DecisionTree::Node{-5, 0.5, 0, 0, 0.5}, w);
           },
           kBody),
       [](const std::string& b) { return LoadFromBytes(b, Learner()); }},
      {"PARK features",
       HostileRecord(
           FourCc("PARK"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(std::string("p"), w);
             SaveRecord(GridB(2, 1, 1), w);  // mask
           },
           bad_string, kBody),
       [](const std::string& b) { return LoadFromBytes(b, Park()); }},
      {"PARK posts",
       HostileRecord(
           FourCc("PARK"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(std::string("p"), w);
             SaveRecord(GridB(2, 1, 1), w);  // mask
             w->WriteU64(0);                 // no features
           },
           [](ArchiveWriter* w) { SaveRecord(Cell{-1, -1}, w); }, kBody),
       [](const std::string& b) { return LoadFromBytes(b, Park()); }},
      {"FMAP endpoints",
       HostileRecord(
           FourCc("FMAP"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             w->WriteU64(7);  // map version
             w->WriteI32(2);  // replication
             w->WriteI32(64);  // vnodes
           },
           bad_string, kBody),
       [](const std::string& b) { return FleetMap::FromBytes(b).status(); }},
      {"FSCH rules",
       HostileRecord(
           FourCc("FSCH"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             w->WriteU64(9);  // seed
           },
           bad_string, kBody),
       [](const std::string& b) {
         return FaultSchedule::FromBytes(b).status();
       }},
  };
  for (const Case& c : cases) {
    Status loaded;
    const std::size_t largest =
        LargestAllocation([&] { loaded = c.load(c.bytes); });
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument)
        << c.what << ": " << loaded;
    EXPECT_LE(largest, 2 * c.bytes.size()) << c.what;
  }
}

// A CRC-valid `tag` section: the fields `prefix` writes, then `count`
// copies of the element `element` writes.
std::string RepeatedRecord(uint32_t tag, void (*prefix)(ArchiveWriter*),
                           void (*element)(ArchiveWriter*), uint64_t count) {
  ArchiveWriter writer;
  writer.BeginSection(tag);
  prefix(&writer);
  writer.WriteU64(count);
  for (uint64_t i = 0; i < count; ++i) element(&writer);
  writer.EndSection();
  return writer.Bytes();
}

// Elements that parse but break a rule of their record are small in the
// archive and larger in memory, so a rule checked only once the whole
// vector is read lets them pile up first. Each rule that bounds a vector
// runs before (a cap on its count) or as (a check per element) the vector
// is read. Each archive repeats one such element thousands of times; the
// read must stop within the first few (a few dozen allocations in all)
// and allocate no more than twice the archive at once.
TEST(ArchiveLoadAllocAuditTest, InvalidElementsAreRefusedBeforeTheyPileUp) {
  using Learner = std::unique_ptr<Classifier>;
  const auto fmap = [](ArchiveWriter* w) {
    w->WriteU32(1);   // schema version
    w->WriteU64(7);   // map version
    w->WriteI32(2);   // replication
    w->WriteI32(64);  // vnodes
  };
  const auto empty_host = [](ArchiveWriter* w) {
    SaveRecord(FleetEndpoint{"", 1}, w);
  };
  const auto empty_raster = [](ArchiveWriter* w) {
    SaveRecord(std::string(), w);  // feature name
    SaveRecord(GridD(0, 0), w);
  };
  const auto untrained_tree = [](ArchiveWriter* w) {
    SaveRecord(DecisionTree(), w);
  };
  struct Case {
    const char* what;
    std::string bytes;
    Status (*load)(const std::string&);
  };
  const Case cases[] = {
      {"FMAP endpoints over the cap",
       RepeatedRecord(
           FourCc("FMAP"), fmap,
           [](ArchiveWriter* w) { SaveRecord(FleetEndpoint{"h", 1}, w); },
           8192),
       [](const std::string& b) { return FleetMap::FromBytes(b).status(); }},
      {"FMAP empty-host endpoints",
       RepeatedRecord(FourCc("FMAP"), fmap, empty_host, 4096),
       [](const std::string& b) { return FleetMap::FromBytes(b).status(); }},
      {"PARK 0x0 features",
       RepeatedRecord(
           FourCc("PARK"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(std::string("p"), w);
             SaveRecord(GridB(2, 1, 1), w);  // mask
           },
           empty_raster, 4096),
       [](const std::string& b) { return LoadFromBytes(b, Park()); }},
      {"PARK features of a cell-less mask",
       RepeatedRecord(
           FourCc("PARK"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(std::string("p"), w);
             SaveRecord(GridB(0, 0), w);  // mask
           },
           empty_raster, 4096),
       [](const std::string& b) { return LoadFromBytes(b, Park()); }},
      {"BAGG count rows beyond the members",
       RepeatedRecord(
           FourCc("BAGG"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(BaggingConfig{}, w);
             SaveRecord(DecisionTree(), w);  // base-learner prototype
             w->WriteU64(1);                 // one member
             SaveRecord(DecisionTree(), w);
             w->WriteI32(0);  // training rows: an empty count row is whole
           },
           [](ArchiveWriter* w) { SaveRecord(std::vector<int>(), w); }, 8192),
       [](const std::string& b) { return LoadFromBytes(b, Learner()); }},
      {"IWAR learners beyond the thresholds",
       RepeatedRecord(
           FourCc("IWAR"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             SaveRecord(IWareConfig{}, w);
             SaveRecord(true, w);                      // fitted
             SaveRecord(std::vector<double>{0.0}, w);  // thresholds
             SaveRecord(std::vector<double>{1.0}, w);  // weights
           },
           untrained_tree, 4096),
       [](const std::string& b) {
         return LoadFromBytes(b, IWareEnsemble(IWareConfig{}));
       }},
      {"FSCH rules over the cap",
       RepeatedRecord(
           FourCc("FSCH"),
           [](ArchiveWriter* w) {
             w->WriteU32(1);  // schema version
             w->WriteU64(9);  // seed
           },
           [](ArchiveWriter* w) { SaveRecord(FaultRule{}, w); },
           FaultSchedule::kMaxRules + 1),
       [](const std::string& b) {
         return FaultSchedule::FromBytes(b).status();
       }},
  };
  for (const Case& c : cases) {
    Status loaded;
    std::size_t largest = 0;
    const std::uint64_t allocs = CountAllocations([&] {
      largest = LargestAllocation([&] { loaded = c.load(c.bytes); });
    });
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument)
        << c.what << ": " << loaded;
    EXPECT_LE(allocs, 64u) << c.what;
    EXPECT_LE(largest, 2 * c.bytes.size()) << c.what;
  }
}

}  // namespace
}  // namespace paws
