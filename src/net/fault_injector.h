#ifndef PAWS_NET_FAULT_INJECTOR_H_
#define PAWS_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// Deterministic fault injection for the serving network stack.
///
/// A FaultSchedule is an explicit, serializable artifact: a seed plus an
/// ordered list of rules, each naming a failure kind, where it applies
/// (per-endpoint, per-opcode) and when it triggers (skip window, firing
/// limit, seeded probability). A FaultInjectedTransport consults the
/// shared FaultInjector on every connect/send/recv and perturbs exactly
/// what the rule says — nothing else is random, so the decisions are a
/// pure function of `{seed, schedule}` and the operation sequence. In a
/// fleet that sequence also follows the ring layout (which endpoint is a
/// park's primary, and the map order probes walk), so a chaos failure
/// reproduces in another process when the layout is pinned too, as
/// `tests/chaos_test.cc` does. The injector's event log (and its
/// fingerprint) is the audit trail tests compare across runs to prove
/// that determinism; it names real endpoints, ports included.

/// What a fired rule does to the operation it matched.
enum class FaultKind : uint32_t {
  /// Connect fails immediately (connection refused).
  kConnectRefuse = 1,
  /// Connect succeeds after an extra `param` ms.
  kConnectDelay = 2,
  /// Send completes after an extra `param` ms.
  kSendDelay = 3,
  /// Recv delivers after an extra `param` ms.
  kRecvDelay = 4,
  /// Send delivers only the first `param` bytes of the frame, then the
  /// connection breaks (mid-frame truncation).
  kTruncateSend = 5,
  /// Send delivers the frame with the byte at offset `param` (mod frame
  /// size) flipped.
  kCorruptSend = 6,
  /// Recv delivers the bytes with the byte at offset `param` (mod read
  /// size) flipped.
  kCorruptRecv = 7,
  /// Send never happens: the connection resets instead.
  kReset = 8,
  /// Recv delivers nothing for the whole wait (one-way stall: the
  /// request reached the server, the response never arrives).
  kStallRecv = 9,
  /// Send delivers the frame in chunks of at most `param` bytes (not a
  /// failure — forces the peer's partial-read reassembly paths).
  kChunkSend = 10,
};

std::string FaultKindName(FaultKind kind);

/// One line of a schedule. Matching is positional and first-match-wins:
/// the earliest rule whose kind applies to the operation, whose endpoint
/// and opcode filters pass, whose skip window has elapsed, whose firing
/// limit is not spent, and whose probability coin comes up — fires.
struct FaultRule {
  static constexpr uint64_t kNoLimit = ~0ull;

  /// "host:port" this rule applies to; empty = every endpoint.
  std::string endpoint;
  /// Wire opcode filter (requests the client sends); 0 = any. Recv
  /// operations match against the opcode of the last frame sent on the
  /// connection (the request being awaited).
  uint32_t opcode = 0;
  FaultKind kind = FaultKind::kReset;
  /// Kind-specific: ms for delays, byte count/offset for truncation,
  /// corruption and chunking.
  uint64_t param = 0;
  /// Let this many matching operations through untouched first.
  uint64_t skip = 0;
  /// Then fire at most this many times.
  uint64_t limit = kNoLimit;
  /// Seeded coin per candidate after the skip window; 1.0 = always.
  double probability = 1.0;
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, FaultRule> r) {
  io(r.endpoint, r.opcode,
     ArchiveAs<uint32_t>(r.kind, FaultKind::kConnectRefuse,
                         FaultKind::kChunkSend),
     r.param, r.skip, r.limit, r.probability);
}

/// The serializable chaos artifact: `{seed, rules}` fully determines
/// every injection decision for a given operation sequence. Archived as
/// an "FSCH" section of at most 4,096 rules.
struct FaultSchedule {
  static constexpr uint64_t kMaxRules = 4096;

  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  static constexpr ArchiveSection kArchiveSection{FourCc("FSCH"), 1};
  std::string ToBytes() const { return ToArchiveBytes(*this); }
  static StatusOr<FaultSchedule> FromBytes(const std::string& bytes);
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, FaultSchedule> s) {
  io(s.seed, ArchiveGuarded(s.rules, FaultSchedule::kMaxRules));
}

/// Thread-safe decision engine shared by every FaultInjectedTransport of
/// a client/router/fleet under test. All rule counters and the
/// probability stream are serialized under one mutex, so the decision
/// sequence is a pure function of (schedule, operation order).
class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule);

  struct Decision {
    bool fired = false;
    FaultKind kind = FaultKind::kReset;
    uint64_t param = 0;
    int rule_index = -1;
  };

  Decision OnConnect(const std::string& endpoint);
  Decision OnSend(const std::string& endpoint, uint32_t opcode);
  Decision OnRecv(const std::string& endpoint, uint32_t opcode);

  const FaultSchedule& schedule() const { return schedule_; }

  /// Every fired decision, in firing order — the determinism audit trail.
  std::vector<std::string> EventLog() const;
  /// Stable 64-bit hash of the event log, as hex. Two runs of the same
  /// {seed, schedule} over the same operation sequence produce the same
  /// fingerprint; tests assert exactly that.
  std::string Fingerprint() const;
  uint64_t total_fired() const;

 private:
  Decision Decide(const char* op, const std::string& endpoint,
                  uint32_t opcode);

  FaultSchedule schedule_;
  mutable std::mutex mu_;
  uint64_t rng_state_ = 0;
  std::vector<uint64_t> match_counts_;
  std::vector<uint64_t> fired_counts_;
  std::vector<std::string> events_;
  uint64_t total_fired_ = 0;
};

/// Wraps a real transport; consults `injector` on every operation and
/// applies whatever fires. `endpoint` is the "host:port" label rules
/// match against.
std::unique_ptr<Transport> MakeFaultInjectedTransport(
    std::unique_ptr<Transport> base, std::shared_ptr<FaultInjector> injector,
    std::string endpoint);

}  // namespace paws

#endif  // PAWS_NET_FAULT_INJECTOR_H_
