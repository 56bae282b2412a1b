#include "net/fault_injector.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "net/wire.h"
#include "util/archive.h"
#include "util/rng.h"

namespace paws {
namespace {

/// FNV-1a 64 over the event log; the same pinned-hash rationale as
/// FleetHash64 (the fingerprint is compared across processes in CI).
uint64_t Fnv1a64(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

bool KindAppliesTo(const char* op, FaultKind kind) {
  switch (kind) {
    case FaultKind::kConnectRefuse:
    case FaultKind::kConnectDelay:
      return op[0] == 'c';  // "connect"
    case FaultKind::kSendDelay:
    case FaultKind::kTruncateSend:
    case FaultKind::kCorruptSend:
    case FaultKind::kReset:
    case FaultKind::kChunkSend:
      return op[0] == 's';  // "send"
    case FaultKind::kRecvDelay:
    case FaultKind::kCorruptRecv:
    case FaultKind::kStallRecv:
      return op[0] == 'r';  // "recv"
  }
  return false;
}

void SleepMs(uint64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

std::string FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kConnectRefuse:
      return "connect-refuse";
    case FaultKind::kConnectDelay:
      return "connect-delay";
    case FaultKind::kSendDelay:
      return "send-delay";
    case FaultKind::kRecvDelay:
      return "recv-delay";
    case FaultKind::kTruncateSend:
      return "truncate-send";
    case FaultKind::kCorruptSend:
      return "corrupt-send";
    case FaultKind::kCorruptRecv:
      return "corrupt-recv";
    case FaultKind::kReset:
      return "reset";
    case FaultKind::kStallRecv:
      return "stall-recv";
    case FaultKind::kChunkSend:
      return "chunk-send";
  }
  return "unknown(" + std::to_string(static_cast<uint32_t>(kind)) + ")";
}

StatusOr<FaultSchedule> FaultSchedule::FromBytes(const std::string& bytes) {
  FaultSchedule schedule;
  PAWS_RETURN_IF_ERROR(FromArchiveBytes(bytes, &schedule));
  return schedule;
}

FaultInjector::FaultInjector(FaultSchedule schedule)
    : schedule_(std::move(schedule)),
      rng_state_(schedule_.seed),
      match_counts_(schedule_.rules.size(), 0),
      fired_counts_(schedule_.rules.size(), 0) {}

FaultInjector::Decision FaultInjector::Decide(const char* op,
                                              const std::string& endpoint,
                                              uint32_t opcode) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < schedule_.rules.size(); ++i) {
    const FaultRule& rule = schedule_.rules[i];
    if (!KindAppliesTo(op, rule.kind)) continue;
    if (!rule.endpoint.empty() && rule.endpoint != endpoint) continue;
    if (rule.opcode != 0 && rule.opcode != opcode) continue;
    const uint64_t seq = match_counts_[i]++;
    if (seq < rule.skip) continue;
    if (fired_counts_[i] >= rule.limit) continue;
    if (rule.probability < 1.0 &&
        SplitMix64Uniform(&rng_state_) >= rule.probability) {
      continue;
    }
    ++fired_counts_[i];
    ++total_fired_;
    events_.push_back(std::string(op) + " " + endpoint + " opcode=" +
                      std::to_string(opcode) + " rule=" + std::to_string(i) +
                      " " + FaultKindName(rule.kind) +
                      " param=" + std::to_string(rule.param));
    Decision decision;
    decision.fired = true;
    decision.kind = rule.kind;
    decision.param = rule.param;
    decision.rule_index = static_cast<int>(i);
    return decision;
  }
  return Decision{};
}

FaultInjector::Decision FaultInjector::OnConnect(const std::string& endpoint) {
  return Decide("connect", endpoint, 0);
}

FaultInjector::Decision FaultInjector::OnSend(const std::string& endpoint,
                                              uint32_t opcode) {
  return Decide("send", endpoint, opcode);
}

FaultInjector::Decision FaultInjector::OnRecv(const std::string& endpoint,
                                              uint32_t opcode) {
  return Decide("recv", endpoint, opcode);
}

std::vector<std::string> FaultInjector::EventLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string FaultInjector::Fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t h = 1469598103934665603ull;
  for (const std::string& event : events_) {
    h = Fnv1a64(h, event);
    h = Fnv1a64(h, "\n");
  }
  char hex[17];
  ::snprintf(hex, sizeof(hex), "%016llx",
             static_cast<unsigned long long>(h));
  return std::string(hex);
}

uint64_t FaultInjector::total_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_fired_;
}

namespace {

/// The shim itself: applies whatever the injector decides to the real
/// transport underneath. Recv decisions match on the opcode of the last
/// frame sent on this connection — the request whose response is being
/// awaited.
class FaultInjectedTransport final : public Transport {
 public:
  FaultInjectedTransport(std::unique_ptr<Transport> base,
                         std::shared_ptr<FaultInjector> injector,
                         std::string endpoint)
      : base_(std::move(base)),
        injector_(std::move(injector)),
        endpoint_(std::move(endpoint)) {}

  Status Connect(const std::string& host, int port, int timeout_ms) override {
    const FaultInjector::Decision decision = injector_->OnConnect(endpoint_);
    if (decision.fired) {
      switch (decision.kind) {
        case FaultKind::kConnectRefuse:
          return Status::Internal("injected: connect to " + endpoint_ +
                                  " refused by fault schedule");
        case FaultKind::kConnectDelay:
          SleepMs(decision.param);
          break;
        default:
          break;
      }
    }
    return base_->Connect(host, port, timeout_ms);
  }

  bool connected() const override { return base_->connected(); }
  void Close() override { base_->Close(); }

  Status Send(const char* data, size_t len, int deadline_ms) override {
    // Sniff the outgoing frame's opcode for per-opcode rules (and for
    // the Recv that awaits this request's response).
    if (len >= kWireHeaderBytes && LoadU32(data) == kWireMagic) {
      last_opcode_ = LoadU32(data + 16);
    }
    const FaultInjector::Decision decision =
        injector_->OnSend(endpoint_, last_opcode_);
    if (!decision.fired) return base_->Send(data, len, deadline_ms);
    switch (decision.kind) {
      case FaultKind::kSendDelay:
        SleepMs(decision.param);
        return base_->Send(data, len, deadline_ms);
      case FaultKind::kTruncateSend: {
        const size_t keep =
            len == 0 ? 0 : std::min<uint64_t>(decision.param, len - 1);
        if (keep > 0) (void)base_->Send(data, keep, deadline_ms);
        base_->Close();
        return Status::Internal("injected: frame to " + endpoint_ +
                                " truncated mid-send");
      }
      case FaultKind::kCorruptSend: {
        std::string corrupted(data, len);
        if (!corrupted.empty()) {
          corrupted[decision.param % corrupted.size()] ^=
              static_cast<char>(0xff);
        }
        return base_->Send(corrupted.data(), corrupted.size(), deadline_ms);
      }
      case FaultKind::kReset:
        base_->Close();
        return Status::Internal("injected: connection to " + endpoint_ +
                                " reset");
      case FaultKind::kChunkSend: {
        const size_t chunk = decision.param > 0 ? decision.param : 1;
        for (size_t off = 0; off < len; off += chunk) {
          PAWS_RETURN_IF_ERROR(
              base_->Send(data + off, std::min(chunk, len - off), deadline_ms));
        }
        return Status::OK();
      }
      default:
        return base_->Send(data, len, deadline_ms);
    }
  }

  StatusOr<size_t> Recv(char* buf, size_t len, int timeout_ms) override {
    const FaultInjector::Decision decision =
        injector_->OnRecv(endpoint_, last_opcode_);
    if (!decision.fired) return base_->Recv(buf, len, timeout_ms);
    switch (decision.kind) {
      case FaultKind::kRecvDelay:
        SleepMs(decision.param);
        return base_->Recv(buf, len, timeout_ms);
      case FaultKind::kStallRecv:
        // The response never arrives within this wait; the caller's
        // deadline machinery turns the silence into a timeout.
        SleepMs(timeout_ms > 0 ? static_cast<uint64_t>(timeout_ms) : 0);
        return static_cast<size_t>(0);
      case FaultKind::kCorruptRecv: {
        StatusOr<size_t> got = base_->Recv(buf, len, timeout_ms);
        if (got.ok() && *got > 0) {
          buf[decision.param % *got] ^= static_cast<char>(0xff);
        }
        return got;
      }
      default:
        return base_->Recv(buf, len, timeout_ms);
    }
  }

 private:
  std::unique_ptr<Transport> base_;
  std::shared_ptr<FaultInjector> injector_;
  std::string endpoint_;
  uint32_t last_opcode_ = 0;
};

}  // namespace

std::unique_ptr<Transport> MakeFaultInjectedTransport(
    std::unique_ptr<Transport> base, std::shared_ptr<FaultInjector> injector,
    std::string endpoint) {
  return std::make_unique<FaultInjectedTransport>(
      std::move(base), std::move(injector), std::move(endpoint));
}

}  // namespace paws
