// sfq-lint-path: src/server/wal.cc
// sfq-lint-expect: durable-write
//
// A journal append through a stream beside the journal's own descriptor.
// The WAL is not exempt from durable-write: its one suppressed `::open` is
// the only write path it may hold, so a second writer here fails lint.
#include <cstdint>
#include <fstream>
#include <string>

namespace streamfreq {

void AppendRecord(const std::string& path, const std::string& record) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(record.data(), static_cast<std::streamsize>(record.size()));
}

}  // namespace streamfreq
