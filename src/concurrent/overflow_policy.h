// The producer's overload choice, on its own so that the wire protocol
// (server/protocol.h) can name it without parsing the ingestor.
#pragma once

#include <cstdint>

namespace streamfreq {

/// What a producer does with a batch the queue would not accept within its
/// deadline (only consulted when push_timeout_ms > 0).
enum class OverflowPolicy : uint8_t {
  /// Fail the Ingest call with IoError. The default: overload is loud.
  kBlock,
  /// Drop the whole batch, count it (shed_batches/shed_items), continue.
  kShed,
  /// Keep every sample_keep_one_in-th item of the batch and enqueue the
  /// remainder with a blocking push; count the rest as
  /// sampled_items_dropped. Trades a bounded accuracy hit for liveness.
  kSample,
};

}  // namespace streamfreq
