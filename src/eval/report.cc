#include "eval/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace streamfreq {

void EmitTable(const TablePrinter& table, const std::string& experiment_id,
               std::ostream& os) {
  table.Print(os);
  const char* dir = std::getenv("SFQ_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + experiment_id + ".csv";
  const Status status = table.WriteCsv(path);
  if (!status.ok()) {
    std::cerr << "warning: CSV export failed: " << status.ToString() << "\n";
  } else {
    os << "(csv: " << path << ")\n";
  }
}

namespace {

std::string EscapeJsonString(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out.push_back('"');
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string RenderJson(const std::string& experiment_id,
                       const std::vector<JsonField>& fields) {
  std::ostringstream os;
  os << "{" << EscapeJsonString("experiment_id") << ": "
     << EscapeJsonString(experiment_id);
  for (const JsonField& field : fields) {
    os << ", " << EscapeJsonString(field.key) << ": " << field.literal;
  }
  os << "}\n";
  return os.str();
}

}  // namespace

JsonField JsonField::Number(std::string key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");  // JSON has no NaN/Inf
  }
  return JsonField{std::move(key), buf};
}

JsonField JsonField::Integer(std::string key, int64_t value) {
  return JsonField{std::move(key), std::to_string(value)};
}

JsonField JsonField::Unsigned(std::string key, uint64_t value) {
  return JsonField{std::move(key), std::to_string(value)};
}

JsonField JsonField::Text(std::string key, const std::string& value) {
  return JsonField{std::move(key), EscapeJsonString(value)};
}

Status WriteJsonReport(const std::string& path,
                       const std::string& experiment_id,
                       const std::vector<JsonField>& fields) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("WriteJsonReport: cannot open " + path);
  }
  out << RenderJson(experiment_id, fields);
  out.flush();
  if (!out) {
    return Status::IoError("WriteJsonReport: write failed for " + path);
  }
  return Status::OK();
}

void EmitJsonReport(const std::string& experiment_id,
                    const std::vector<JsonField>& fields, std::ostream& os) {
  const char* dir = std::getenv("SFQ_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/" + experiment_id + ".json";
  const Status status = WriteJsonReport(path, experiment_id, fields);
  if (!status.ok()) {
    std::cerr << "warning: JSON export failed: " << status.ToString() << "\n";
  } else {
    os << "(json: " << path << ")\n";
  }
}

}  // namespace streamfreq
