// Tiny fixed-width table writer used by the bench harnesses to print the
// paper's tables and figure series.

#ifndef OBJALLOC_UTIL_CSV_H_
#define OBJALLOC_UTIL_CSV_H_

#include <ostream>
#include <string>
#include <vector>

namespace objalloc::util {

// Accumulates rows of string cells; renders as an aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Convenience: cells may be added as strings or numerics.
  class RowBuilder {
   public:
    explicit RowBuilder(Table* table) : table_(table) {}
    RowBuilder& Cell(const std::string& value);
    RowBuilder& Cell(const char* value);
    RowBuilder& Cell(double value, int precision = 4);
    RowBuilder& Cell(int64_t value);
    RowBuilder& Cell(int value) { return Cell(static_cast<int64_t>(value)); }
    ~RowBuilder();

    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

   private:
    Table* table_;
    std::vector<std::string> cells_;
  };

  RowBuilder AddRow() { return RowBuilder(this); }
  void AddRawRow(std::vector<std::string> cells);

  size_t num_rows() const { return rows_.size(); }

  // Space-aligned table with a header rule, for terminal output.
  void WriteAligned(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with fixed precision (no trailing-zero stripping).
std::string FormatDouble(double value, int precision);

}  // namespace objalloc::util

#endif  // OBJALLOC_UTIL_CSV_H_
