// Protocol battery for `sfq serve`: round-trips for every opcode, plus the
// corruption matrix — truncation at every byte boundary, a bit flip in
// every header position, payload damage — all of which must come back as a
// clean error Status (never a crash, never a giant allocation; the suite
// also runs under ASan/UBSan via scripts/check.sh).
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <pthread.h>

#include "server/net.h"
#include "util/bytes.h"
#include "util/frame.h"

namespace streamfreq {
namespace {

Request SampleRequest(Opcode op) {
  Request request;
  request.op = op;
  if (OpcodeNeedsTenant(op)) request.tenant = "tenant-A.1";
  switch (op) {
    case Opcode::kCreateTenant:
      request.spec.seed = 77;
      request.spec.threads = 3;
      request.spec.push_timeout_ms = 5;
      request.spec.policy = OverflowPolicy::kShed;
      request.spec.tracked = 128;
      break;
    case Opcode::kIngest:
      request.items = {1, 2, 3, 0xFFFFFFFFFFFFFFFFULL, 42};
      break;
    case Opcode::kTopK:
    case Opcode::kMaxChange:
      request.k = 10;
      break;
    case Opcode::kEstimate:
      request.item = 0xDEADBEEFULL;
      break;
    default:
      break;
  }
  return request;
}

Response SampleResponse() {
  Response response;
  response.epoch = 41;
  response.value = -7;
  response.entries = {{1, 100}, {2, -50}, {3, 25}};
  response.blob = std::string("sketch-bytes\0with-nul", 21);
  return response;
}

TEST(OpcodeRegistryTest, TableIsDenseAndComplete) {
  const std::span<const OpcodeInfo> table = OpcodeTable();
  ASSERT_EQ(table.size(), kOpcodeCount);
  for (size_t i = 0; i < table.size(); ++i) {
    // Rows sit at their wire value: the table IS the numbering.
    EXPECT_EQ(static_cast<size_t>(table[i].op), i);
    ASSERT_NE(table[i].name, nullptr);
    EXPECT_STRNE(table[i].name, "");

    auto by_raw = LookupOpcode(static_cast<uint64_t>(i));
    ASSERT_TRUE(by_raw.ok());
    EXPECT_EQ(*by_raw, table[i].op);

    auto by_name = OpcodeFromName(table[i].name);
    ASSERT_TRUE(by_name.ok()) << table[i].name;
    EXPECT_EQ(*by_name, table[i].op);

    EXPECT_STREQ(OpcodeName(table[i].op), table[i].name);
    EXPECT_EQ(OpcodeNeedsTenant(table[i].op), table[i].needs_tenant);
  }
  // Names are unique.
  for (size_t i = 0; i < table.size(); ++i) {
    for (size_t j = i + 1; j < table.size(); ++j) {
      EXPECT_STRNE(table[i].name, table[j].name);
    }
  }
}

TEST(OpcodeRegistryTest, UnregisteredValuesAreInvalidArgument) {
  EXPECT_TRUE(LookupOpcode(kOpcodeCount).status().IsInvalidArgument());
  EXPECT_TRUE(LookupOpcode(~uint64_t{0}).status().IsInvalidArgument());
  EXPECT_TRUE(OpcodeFromName("").status().IsInvalidArgument());
  EXPECT_TRUE(OpcodeFromName("frobnicate").status().IsInvalidArgument());
}

TEST(PolicyWireTest, RoundTripsAndRejectsUnknown) {
  for (OverflowPolicy policy : {OverflowPolicy::kBlock, OverflowPolicy::kShed,
                                OverflowPolicy::kSample}) {
    auto from_wire = PolicyFromWire(PolicyToWire(policy));
    ASSERT_TRUE(from_wire.ok());
    EXPECT_EQ(*from_wire, policy);
    auto from_name = PolicyFromName(PolicyName(policy));
    ASSERT_TRUE(from_name.ok());
    EXPECT_EQ(*from_name, policy);
  }
  EXPECT_TRUE(PolicyFromWire(99).status().IsInvalidArgument());
  EXPECT_TRUE(PolicyFromName("fifo").status().IsInvalidArgument());
}

TEST(TenantNameTest, ValidatesCharsetAndLength) {
  EXPECT_TRUE(ValidTenantName("a"));
  EXPECT_TRUE(ValidTenantName("Tenant_0.9-x"));
  EXPECT_TRUE(ValidTenantName(std::string(64, 'z')));
  EXPECT_FALSE(ValidTenantName(""));
  EXPECT_FALSE(ValidTenantName(std::string(65, 'z')));
  EXPECT_FALSE(ValidTenantName("has space"));
  EXPECT_FALSE(ValidTenantName("slash/y"));
  EXPECT_FALSE(ValidTenantName(std::string("nul\0byte", 8)));
  EXPECT_FALSE(ValidTenantName("quote\"y"));
}

TEST(FrameTest, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string(100000, 'q'),
        std::string("\0\xff\x7f", 3)}) {
    const std::string frame = EncodeFrame(payload);
    ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
    auto decoded = DecodeFrame(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, payload);
    // Validated in place: the payload is a view into the frame's bytes.
    EXPECT_EQ(decoded->data(), frame.data() + kFrameHeaderSize);
  }
}

TEST(FrameTest, TruncationAtEveryBoundaryIsCorruption) {
  const std::string frame = EncodeFrame("corruption matrix payload");
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_TRUE(DecodeFrame(std::string_view(frame).substr(0, len))
                    .status()
                    .IsCorruption())
        << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage after a valid frame is damage too.
  EXPECT_TRUE(DecodeFrame(frame + "x").status().IsCorruption());
}

TEST(FrameTest, EveryHeaderBitFlipIsCorruption) {
  const std::string frame = EncodeFrame("bit flip battery");
  for (size_t byte = 0; byte < kFrameHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_TRUE(DecodeFrame(damaged).status().IsCorruption())
          << "flip at header byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameTest, EveryPayloadBitFlipIsCorruption) {
  const std::string frame = EncodeFrame("payload flip battery");
  for (size_t byte = kFrameHeaderSize; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_TRUE(DecodeFrame(damaged).status().IsCorruption())
          << "flip at payload byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameTest, OversizedDeclaredLengthIsCorruptionNotAllocation) {
  // Craft a header that declares a payload beyond kMaxPayloadBytes; the
  // parser must reject on the bound, before trusting the length.
  std::string header;
  ByteWriter writer(&header);
  writer.PutU64(kFrameMagic);
  writer.PutU64(kMaxPayloadBytes + 1);
  writer.PutBytes("\0\0\0\0", 4);
  EXPECT_TRUE(frame::ParseHeader(header, kFrameMagic, kMaxPayloadBytes)
                  .status()
                  .IsCorruption());
  // The whole-frame decoder rejects on the same bound.
  EXPECT_TRUE(DecodeFrame(header).status().IsCorruption());
}

TEST(RequestTest, RoundTripsEveryOpcode) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    const Request request = SampleRequest(info.op);
    std::string payload;
    request.EncodeTo(&payload);
    auto decoded = Request::Decode(payload);
    ASSERT_TRUE(decoded.ok()) << info.name << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(*decoded, request) << info.name;
  }
}

TEST(RequestTest, TruncationAtEveryBoundaryFailsCleanly) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    std::string payload;
    SampleRequest(info.op).EncodeTo(&payload);
    for (size_t len = 0; len < payload.size(); ++len) {
      auto decoded = Request::Decode(payload.substr(0, len));
      EXPECT_FALSE(decoded.ok())
          << info.name << ": prefix of " << len << " bytes decoded";
    }
    // Trailing bytes mean the decoder lost sync with the encoder.
    auto trailing = Request::Decode(payload + "y");
    EXPECT_FALSE(trailing.ok()) << info.name;
  }
}

TEST(RequestTest, UnregisteredOpcodeIsInvalidArgumentNotCorruption) {
  // A CRC-valid frame carrying an unknown opcode is a protocol-version
  // mismatch, not wire damage: the server answers with an error and keeps
  // the connection (DecodeFrame already vouched for the bytes).
  std::string payload;
  Request ping;
  ping.EncodeTo(&payload);
  std::string unknown = payload;
  unknown[0] = static_cast<char>(kOpcodeCount);  // first field is the opcode
  EXPECT_TRUE(Request::Decode(unknown).status().IsInvalidArgument());
}

TEST(RequestTest, BadTenantNameRejected) {
  Request request = SampleRequest(Opcode::kTopK);
  request.tenant = "bad tenant name!";
  std::string payload;
  request.EncodeTo(&payload);
  EXPECT_TRUE(Request::Decode(payload).status().IsInvalidArgument());
}

TEST(RequestTest, ItemCountMismatchIsCorruption) {
  // Declare more items than the payload carries: the count is checked
  // against the exact remaining bytes before any vector reserve.
  std::string payload;
  SampleRequest(Opcode::kIngest).EncodeTo(&payload);
  // The item array is the final field: u64 count then count * 8 bytes.
  const size_t count_at = payload.size() - 5 * 8 - 8;
  std::string grown = payload.substr(0, count_at);
  ByteWriter writer(&grown);
  writer.PutU64(~uint64_t{0});  // absurd count, no bytes behind it
  EXPECT_TRUE(Request::Decode(grown).status().IsCorruption());
}

TEST(ResponseTest, RoundTripsResultsAndErrors) {
  const Response response = SampleResponse();
  std::string payload;
  response.EncodeTo(&payload);
  auto decoded = Response::Decode(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, response);
  EXPECT_TRUE(decoded->ok());
  EXPECT_TRUE(decoded->ToStatus().ok());

  const Response error =
      Response::FromStatus(Status::NotFound("no such tenant: x"));
  std::string error_payload;
  error.EncodeTo(&error_payload);
  auto error_decoded = Response::Decode(error_payload);
  ASSERT_TRUE(error_decoded.ok());
  EXPECT_FALSE(error_decoded->ok());
  EXPECT_TRUE(error_decoded->ToStatus().IsNotFound());
  EXPECT_EQ(error_decoded->ToStatus().message(), "no such tenant: x");
}

TEST(ResponseTest, TruncationAtEveryBoundaryFailsCleanly) {
  std::string payload;
  SampleResponse().EncodeTo(&payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(Response::Decode(payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(Response::Decode(payload + "z").ok());
}

TEST(ResponseTest, UnknownStatusCodeRejected) {
  std::string payload;
  Response().EncodeTo(&payload);
  payload[0] = 99;  // code is the first u64; 99 is beyond kInternal
  EXPECT_FALSE(Response::Decode(payload).ok());
}

// Socket-level EOF discrimination: a peer that hangs up between frames is
// a clean NotFound; one that dies mid-frame is Corruption.
TEST(NetTest, CleanEofVsMidFrameTruncation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd reader(fds[0]);
  {
    OwnedFd writer_fd(fds[1]);
    ASSERT_TRUE(SendFrame(writer_fd.get(), "whole frame").ok());
    const std::string frame = EncodeFrame("gets cut short");
    const std::string half = frame.substr(0, frame.size() / 2);
    ASSERT_EQ(::write(writer_fd.get(), half.data(), half.size()),
              static_cast<ssize_t>(half.size()));
  }  // writer closes: EOF after one whole frame and half of another

  auto whole = RecvFrame(reader.get());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, "whole frame");
  EXPECT_TRUE(RecvFrame(reader.get()).status().IsCorruption());

  int more[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, more), 0);
  OwnedFd reader2(more[0]);
  { OwnedFd writer2(more[1]); }  // close immediately: EOF at a boundary
  EXPECT_TRUE(RecvFrame(reader2.get()).status().IsNotFound());
}

void IgnoreSignal(int) {}

// A multi-MB frame through a socket with a small send buffer: the kernel
// moves it in many pieces, and signals sent to the blocked writer end its
// sendmsg early (a partial count, or EINTR when nothing moved), so SendFrame
// has to resume mid-iovec. The reader sees the exact frame.
TEST(NetTest, LargeFrameRoundTripsAcrossPartialSends) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd reader(fds[0]);
  OwnedFd writer(fds[1]);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(writer.get(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  std::string payload(3 << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 2654435761u) >> 13);
  }

  // No SA_RESTART: a signal interrupts the writer's sendmsg.
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> done{false};
  Status sent;
  std::thread send_thread([&] {
    sent = SendFrame(writer.get(), payload);
    done = true;
  });
  // Read in small chunks, poking the writer between them.
  std::string received;
  const size_t frame_bytes = frame::kHeaderSize + payload.size();
  char chunk[16 << 10];
  while (received.size() < frame_bytes) {
    if (!done) ::pthread_kill(send_thread.native_handle(), SIGUSR1);
    const ssize_t n = ::read(reader.get(), chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    received.append(chunk, static_cast<size_t>(n));
  }
  send_thread.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_TRUE(sent.ok()) << sent.ToString();
  auto decoded = DecodeFrame(received);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == payload);
}

// A peer that hung up makes SendFrame an IoError (EPIPE); MSG_NOSIGNAL keeps
// SIGPIPE from killing the process, which would end this test binary.
TEST(NetTest, SendToClosedPeerIsIoError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd writer(fds[1]);
  { OwnedFd reader(fds[0]); }
  EXPECT_TRUE(SendFrame(writer.get(), "nobody listens").IsIoError());
  EXPECT_TRUE(SendFrame(writer.get(), std::string(1 << 20, 'x')).IsIoError());
}

TEST(NetTest, OversizedSendRejectedBeforeWrite) {
  const std::string too_big(kMaxPayloadBytes + 1, 'x');
  // fd -1: the bound check fires before any write is attempted.
  EXPECT_TRUE(SendFrame(-1, too_big).IsInvalidArgument());
}

}  // namespace
}  // namespace streamfreq
