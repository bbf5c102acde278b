#include "runtime/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

namespace hotstuff1 {

void ReportTable::Print(std::ostream& os) const {
  os << "\n== " << caption_ << " ==\n";
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << "\n";
  };
  print_row(columns_);
  std::string rule;
  for (size_t c = 0; c < columns_.size(); ++c) rule += std::string(widths[c] + 2, '-');
  os << rule << "\n";
  for (const auto& row : rows_) print_row(row);
  os.flush();
}

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatTps(double tps) {
  char buf[32];
  if (tps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", tps / 1e6);
  } else if (tps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", tps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", tps);
  }
  return buf;
}

std::string FormatMs(double ms) {
  char buf[32];
  if (ms >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  }
  return buf;
}

std::string FormatCount(uint64_t v) { return std::to_string(v); }

SampleStats ComputeStats(const std::vector<double>& samples) {
  SampleStats s;
  s.count = samples.size();
  if (s.count == 0) return s;
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  if (s.count < 2) return s;
  double sq = 0;
  for (double v : samples) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(s.count - 1));
  s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(s.count));
  return s;
}

}  // namespace hotstuff1
