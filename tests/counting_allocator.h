// A counting global operator new for tests that bound what a call
// allocates. Linking counting_allocator.cc into a test executable replaces
// operator new for the whole binary; these read the running totals.
#pragma once

#include <cstddef>

namespace streamfreq::testing_alloc {

/// Bytes requested from operator new in this process so far (every form:
/// plain, array, sized and nothrow).
size_t NewBytes();

/// NewBytes() plus PageBuffer::AllocatedBytes(): the counter arrays of
/// 128 KiB or more are mappings of their own and bypass operator new.
size_t AllocatedBytes();

}  // namespace streamfreq::testing_alloc
