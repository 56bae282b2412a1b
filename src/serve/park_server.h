#ifndef PAWS_SERVE_PARK_SERVER_H_
#define PAWS_SERVE_PARK_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "net/server.h"
#include "net/wire.h"
#include "serve/park_service.h"
#include "util/status.h"

namespace paws {

/// Network front end for a ParkService: decodes request frames, calls the
/// matching serving API, archive-encodes the result. One Handle per
/// opcode-dispatch — every decode failure and unknown opcode becomes an
/// InvalidArgument status frame (the connection survives; only broken
/// *framing* closes it, inside FrameServer).
///
/// Cache hits are answered on FrameServer's event thread (TryHandleCached):
/// a kRiskMap, kRiskTile or kCellCurves request whose result sits in the
/// park's cache, under locks taken without waiting, with an answer of at
/// most kInlineAnswerBytes. Everything else goes to a worker and Handle.
/// A kCellCurves request sizes its own answer, so one whose curve table
/// alone would pass the frame cap is refused before it is computed.
///
/// Wire SwapSnapshot is an upsert: replacing an unknown park id registers
/// it instead, so a fresh field daemon can be bootstrapped entirely over
/// the network by the training fleet.
///
/// Fleet elasticity (PR 9): the daemon additionally stores the published
/// FleetMap artifact (kSwapFleetMap) and answers the kMapVersion
/// handshake from it, serves its exact snapshot archives to peer replicas
/// (kGetSnapshot), and executes read-repair nudges (kRepair): verify the
/// local artifact round-trips, else re-pull it from the listed source
/// replicas.
class ParkServer {
 public:
  /// The largest answer encoded on the event thread, counted as the bytes
  /// of its arrays. Encoding is O(cells) and every connection waits while
  /// it runs, so a full 64x64 tile (81,984 payload bytes) or a mega park's
  /// map goes to a worker.
  static constexpr size_t kInlineAnswerBytes = 64 << 10;

  /// `service` must outlive the server and Shutdown().
  explicit ParkServer(ParkService* service) : service_(service) {}
  ~ParkServer() { Shutdown(); }

  ParkServer(const ParkServer&) = delete;
  ParkServer& operator=(const ParkServer&) = delete;

  Status Start(FrameServerOptions options);
  int port() const { return server_.port(); }
  void Shutdown() { server_.Shutdown(); }

  FrameServer::Stats net_stats() const { return server_.stats(); }

  /// The stored FleetMap version (0 until one is published).
  uint64_t fleet_map_version() const {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    return fleet_map_version_;
  }

  /// Exposed for tests: the exact request→response mapping, minus sockets.
  Frame Handle(const Frame& request);

 private:
  /// FrameServer's inline handler: fills `response` with exactly what
  /// Handle would answer and returns true when the request is a cache hit
  /// that fits kInlineAnswerBytes; false otherwise, touching nothing.
  bool TryHandleCached(const Frame& request, Frame* response);
  /// Decodes, serves and encodes one request; an error becomes the
  /// response's status frame.
  StatusOr<std::string> Dispatch(const Frame& request);
  StatusOr<std::string> HandleRiskMap(const std::string& payload);
  StatusOr<std::string> HandleRiskTile(const std::string& payload);
  StatusOr<std::string> HandleCellCurves(const std::string& payload);
  StatusOr<std::string> HandlePlanForPost(const std::string& payload);
  StatusOr<std::string> HandleSwapSnapshot(const std::string& payload);
  StatusOr<std::string> HandleStats(const std::string& payload);
  StatusOr<std::string> HandleMapVersion(const std::string& payload);
  StatusOr<std::string> HandleSwapFleetMap(const std::string& payload);
  StatusOr<std::string> HandleGetSnapshot(const std::string& payload);
  StatusOr<std::string> HandleRepair(const std::string& payload);
  /// Serves `snapshot_bytes` for `park_id`: swaps the park's model, or
  /// registers the park when it is new here (SwapSnapshot is an upsert).
  Status Install(const std::string& park_id,
                 const std::string& snapshot_bytes);

  ParkService* service_;
  FrameServer server_;
  /// The frame cap Start gave FrameServer; set before any handler runs.
  size_t max_frame_bytes_ = kDefaultMaxFrameBytes;

  /// Guards the published fleet-map artifact.
  mutable std::mutex fleet_mu_;
  uint64_t fleet_map_version_ = 0;
  std::string fleet_map_bytes_;
};

}  // namespace paws

#endif  // PAWS_SERVE_PARK_SERVER_H_
