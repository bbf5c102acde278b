// Plain-text table printing for the figure-reproduction benches.

#ifndef HOTSTUFF1_RUNTIME_REPORT_H_
#define HOTSTUFF1_RUNTIME_REPORT_H_

#include <iostream>
#include <string>
#include <vector>

#include "common/units.h"

namespace hotstuff1 {

/// \brief Aligned text table with a caption, printed like the paper's
/// figure series (one row per x-axis point, one column per protocol).
class ReportTable {
 public:
  ReportTable(std::string caption, std::vector<std::string> columns)
      : caption_(std::move(caption)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  void Print(std::ostream& os = std::cout) const;

  const std::string& caption() const { return caption_; }

 private:
  std::string caption_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatTps(double tps);
std::string FormatMs(double ms);
std::string FormatCount(uint64_t v);

/// Aggregate statistics for one table cell over its per-seed samples.
/// Deterministic: computed with two fixed-order passes, so the emitted
/// bytes never depend on worker scheduling.
struct SampleStats {
  uint64_t count = 0;
  double mean = 0;
  double stddev = 0;  ///< sample standard deviation (n-1 denominator); 0 if count < 2
  double ci95 = 0;    ///< 95% CI half-width, normal approx: 1.96 * stddev / sqrt(n)
};
SampleStats ComputeStats(const std::vector<double>& samples);

/// Quotes a CSV cell when it contains a delimiter, quote, or newline.
std::string CsvEscape(const std::string& s);
/// Escapes quotes, backslashes, and newlines for a JSON string body
/// (no surrounding quotes).
std::string JsonEscape(const std::string& s);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_REPORT_H_
