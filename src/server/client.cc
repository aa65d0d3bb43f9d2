#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/macros.h"

namespace streamfreq {

namespace {

// Items per ingest request: frames stay well under kMaxPayloadBytes and
// the server applies each request atomically enough for per-request acks
// to be meaningful.
constexpr size_t kIngestChunkItems = 1 << 16;

}  // namespace

Result<SfqClient> SfqClient::Connect(const std::string& socket_path,
                                     const RetryOptions& retry) {
  SplitMix64 jitter(retry.seed);
  for (uint32_t attempt = 0;; ++attempt) {
    Result<OwnedFd> fd = ConnectUnix(socket_path);
    if (fd.ok()) {
      SfqClient client(std::move(*fd));
      client.retry_ = retry;
      client.jitter_ = jitter;
      // Remember the path only when retry is on: it is what arms the
      // reconnect-and-resend path inside Ingest.
      if (retry.retries > 0) client.socket_path_ = socket_path;
      return client;
    }
    if (attempt >= retry.retries) return fd.status();
    const uint64_t cap_ms = retry.backoff_ms
                            << std::min<uint32_t>(attempt, 6);
    const uint64_t half = cap_ms / 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        half + (cap_ms == 0 ? 0 : jitter.Next() % (half + 1))));
  }
}

void SfqClient::BackoffSleep(uint32_t attempt) {
  const uint64_t cap_ms = retry_.backoff_ms << std::min<uint32_t>(attempt, 6);
  const uint64_t half = cap_ms / 2;
  std::this_thread::sleep_for(std::chrono::milliseconds(
      half + (cap_ms == 0 ? 0 : jitter_.Next() % (half + 1))));
}

Result<Response> SfqClient::Call(const Request& request) {
  std::string payload;
  request.EncodeTo(&payload);
  STREAMFREQ_RETURN_NOT_OK(SendFrame(fd_.get(), payload));
  STREAMFREQ_ASSIGN_OR_RETURN(std::string reply, RecvFrame(fd_.get()));
  return Response::Decode(reply);
}

Result<Response> SfqClient::CallChecked(const Request& request) {
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, Call(request));
  STREAMFREQ_RETURN_NOT_OK(response.ToStatus());
  return response;
}

Status SfqClient::Ping() {
  Request request;
  request.op = Opcode::kPing;
  return CallChecked(request).status();
}

Status SfqClient::CreateTenant(const std::string& tenant,
                               const TenantSpec& spec) {
  Request request;
  request.op = Opcode::kCreateTenant;
  request.tenant = tenant;
  request.spec = spec;
  return CallChecked(request).status();
}

Status SfqClient::DropTenant(const std::string& tenant) {
  Request request;
  request.op = Opcode::kDropTenant;
  request.tenant = tenant;
  return CallChecked(request).status();
}

Status SfqClient::Ingest(const std::string& tenant,
                         std::span<const ItemId> items) {
  while (!items.empty()) {
    const size_t take = std::min(items.size(), kIngestChunkItems);
    Request request;
    request.op = Opcode::kIngest;
    request.tenant = tenant;
    request.items.assign(items.begin(), items.begin() + take);
    STREAMFREQ_RETURN_NOT_OK(IngestChunk(request));
    items = items.subspan(take);
  }
  return Status::OK();
}

Status SfqClient::IngestChunk(const Request& request) {
  for (uint32_t attempt = 0;; ++attempt) {
    Result<Response> response = Call(request);
    // A decodable Response is a definitive server answer — success or a
    // server-side rejection — and is never retried. Only a failed round
    // trip (send/recv/framing) goes around again.
    if (response.ok()) return response->ToStatus();
    if (socket_path_.empty() || attempt >= retry_.retries) {
      return response.status();
    }
    BackoffSleep(attempt);
    // The old connection is dead after a transport error; reconnect. On
    // failure the stale fd stays and the next Call fails fast, burning
    // another attempt.
    Result<OwnedFd> fd = ConnectUnix(socket_path_);
    if (fd.ok()) fd_ = std::move(*fd);
  }
}

Result<uint64_t> SfqClient::Seal(const std::string& tenant) {
  Request request;
  request.op = Opcode::kSeal;
  request.tenant = tenant;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  return response.epoch;
}

Result<std::vector<ItemCount>> SfqClient::TopK(const std::string& tenant,
                                               uint64_t k, uint64_t* epoch) {
  Request request;
  request.op = Opcode::kTopK;
  request.tenant = tenant;
  request.k = k;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  if (epoch != nullptr) *epoch = response.epoch;
  return std::move(response.entries);
}

Result<Count> SfqClient::Estimate(const std::string& tenant, ItemId item,
                                  uint64_t* epoch) {
  Request request;
  request.op = Opcode::kEstimate;
  request.tenant = tenant;
  request.item = item;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  if (epoch != nullptr) *epoch = response.epoch;
  return response.value;
}

Result<uint64_t> SfqClient::MarkEpoch(const std::string& tenant) {
  Request request;
  request.op = Opcode::kMarkEpoch;
  request.tenant = tenant;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  return response.epoch;
}

Result<std::vector<ItemCount>> SfqClient::MaxChange(const std::string& tenant,
                                                    uint64_t k) {
  Request request;
  request.op = Opcode::kMaxChange;
  request.tenant = tenant;
  request.k = k;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  return std::move(response.entries);
}

Result<CountSketch> SfqClient::Export(const std::string& tenant,
                                      uint64_t* epoch) {
  Request request;
  request.op = Opcode::kExport;
  request.tenant = tenant;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  if (epoch != nullptr) *epoch = response.epoch;
  return CountSketch::Deserialize(response.blob);
}

Result<std::string> SfqClient::RecoveryInfo(const std::string& tenant) {
  Request request;
  request.op = Opcode::kRecoveryInfo;
  request.tenant = tenant;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  return std::move(response.blob);
}

Result<std::string> SfqClient::Statsz() {
  Request request;
  request.op = Opcode::kStatsz;
  STREAMFREQ_ASSIGN_OR_RETURN(Response response, CallChecked(request));
  return std::move(response.blob);
}

Status SfqClient::Shutdown() {
  Request request;
  request.op = Opcode::kShutdown;
  return CallChecked(request).status();
}

}  // namespace streamfreq
