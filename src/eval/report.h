// Experiment result emission: console table plus optional CSV artifact,
// and flat JSON reports for metric-trajectory tracking.
//
// Every bench calls EmitTable; when the environment variable SFQ_CSV_DIR
// names a directory, the table is additionally written to
// <SFQ_CSV_DIR>/<experiment_id>.csv so sweeps can be plotted without
// scraping stdout. JSON reports work the same way via SFQ_JSON_DIR: a flat
// {"experiment_id": ..., key: value, ...} object per run, the format the
// BENCH_* trajectory tooling diffs across commits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/table_printer.h"

namespace streamfreq {

/// Prints `table` to `os` and mirrors it to CSV when SFQ_CSV_DIR is set.
/// CSV failures are reported on stderr but never abort a bench run.
void EmitTable(const TablePrinter& table, const std::string& experiment_id,
               std::ostream& os);

/// One key of a flat JSON report, with the value already rendered as a JSON
/// literal (construct via the typed factories, which handle escaping and
/// non-finite numbers).
struct JsonField {
  std::string key;
  std::string literal;

  static JsonField Number(std::string key, double value);
  static JsonField Integer(std::string key, int64_t value);
  static JsonField Unsigned(std::string key, uint64_t value);  // e.g. ItemId
  static JsonField Text(std::string key, const std::string& value);
};

/// Writes `{"experiment_id": <id>, <fields...>}` to `path`.
Status WriteJsonReport(const std::string& path,
                       const std::string& experiment_id,
                       const std::vector<JsonField>& fields);

/// Mirrors the report to <SFQ_JSON_DIR>/<experiment_id>.json when that
/// environment variable is set; failures warn on stderr but never abort
/// (same contract as the CSV mirror).
void EmitJsonReport(const std::string& experiment_id,
                    const std::vector<JsonField>& fields, std::ostream& os);

}  // namespace streamfreq
