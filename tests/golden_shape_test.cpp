// Shape gates on the committed full-scale experiment goldens.  The
// experiments-smoke CI job pins each figure binary's stdout byte for byte;
// these tests pin the paper's claims the bytes carry, so a deliberate
// re-baseline (new RNG realisation, a fix) cannot silently move a figure
// past what EXPERIMENTS.md states.
//
//   E1 (Fig. 2): Algo_NGST gains an order of magnitude over no
//       preprocessing at low fault rates, and beats Median-3 up to
//       Gamma0 = 0.1.
//   E3 (Fig. 4): under correlated faults Algo_NGST beats both static
//       baselines, Median-3 and BitVote-3, up to Gamma_ini = 0.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One figure table: the column names of the header row (its first entry
/// names the x axis) and every data row, x value first.
struct Table {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  [[nodiscard]] std::size_t column(const std::string& name) const {
    const auto it = std::find(columns.begin(), columns.end(), name);
    return it == columns.end() ? columns.size()
                               : static_cast<std::size_t>(it - columns.begin());
  }
};

/// Reads bench/golden/<name>.txt: '#' lines are comments, the first other
/// line is the header, and every later line is one whitespace-separated row
/// of numbers as wide as the header.
Table read_golden(const std::string& name) {
  const std::string path = std::string(SPACEFTS_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  Table table;
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return table;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (table.columns.empty()) {
      for (std::string col; fields >> col;) table.columns.push_back(col);
      continue;
    }
    std::vector<double> row;
    for (double v; fields >> v;) row.push_back(v);
    EXPECT_TRUE(fields.eof()) << path << ": non-numeric field in: " << line;
    EXPECT_EQ(row.size(), table.columns.size()) << path << ": " << line;
    if (row.size() == table.columns.size()) table.rows.push_back(row);
  }
  return table;
}

/// The smallest Psi over every column whose name starts with \p prefix.
double best_of(const Table& table, const std::vector<double>& row,
               const std::string& prefix) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 1; c < table.columns.size(); ++c) {
    if (table.columns[c].rfind(prefix, 0) == 0) best = std::min(best, row[c]);
  }
  return best;
}

TEST(GoldenShape, E1AlgoNgstGainsAnOrderOfMagnitudeAtLowGamma) {
  const Table fig2 = read_golden("fig2_ngst_uncorrelated.txt");
  const std::size_t nopre = fig2.column("NoPre");
  ASSERT_LT(nopre, fig2.columns.size());
  std::size_t checked = 0;
  for (const auto& row : fig2.rows) {
    if (row[0] > 0.01) continue;
    const double best = best_of(fig2, row, "Algo_NGST");
    ASSERT_GT(best, 0.0) << "Gamma0=" << row[0];
    EXPECT_GE(row[nopre] / best, 10.0) << "Gamma0=" << row[0];
    ++checked;
  }
  EXPECT_GE(checked, 4u) << "fig2 lost its low-Gamma0 rows";
}

TEST(GoldenShape, E1AlgoNgstBeatsMedian3UpToGammaTenth) {
  const Table fig2 = read_golden("fig2_ngst_uncorrelated.txt");
  const std::size_t median = fig2.column("Median-3");
  ASSERT_LT(median, fig2.columns.size());
  std::size_t checked = 0;
  for (const auto& row : fig2.rows) {
    if (row[0] > 0.1) continue;
    EXPECT_LT(best_of(fig2, row, "Algo_NGST"), row[median])
        << "Gamma0=" << row[0];
    ++checked;
  }
  EXPECT_GE(checked, 7u) << "fig2 lost rows up to Gamma0 = 0.1";
}

TEST(GoldenShape, E3AlgoNgstBeatsBothBaselinesUnderCorrelatedFaults) {
  const Table fig4 = read_golden("fig4_ngst_correlated.txt");
  const std::size_t median = fig4.column("Median-3");
  const std::size_t vote = fig4.column("BitVote-3");
  ASSERT_LT(median, fig4.columns.size());
  ASSERT_LT(vote, fig4.columns.size());
  std::size_t checked = 0;
  for (const auto& row : fig4.rows) {
    if (row[0] > 0.1) continue;
    const double algo = best_of(fig4, row, "Algo_NGST");
    EXPECT_LT(algo, row[median]) << "Gamma_ini=" << row[0];
    EXPECT_LT(algo, row[vote]) << "Gamma_ini=" << row[0];
    ++checked;
  }
  EXPECT_GE(checked, 7u) << "fig4 lost rows up to Gamma_ini = 0.1";
}

}  // namespace
