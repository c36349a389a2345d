#include "objalloc/util/csv.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "objalloc/util/logging.h"

namespace objalloc::util {

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  OBJALLOC_CHECK(!header_.empty());
}

Table::RowBuilder& Table::RowBuilder::Cell(const std::string& value) {
  cells_.push_back(value);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::Cell(const char* value) {
  cells_.emplace_back(value);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::Cell(double value, int precision) {
  cells_.push_back(FormatDouble(value, precision));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::Cell(int64_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

Table::RowBuilder::~RowBuilder() { table_->AddRawRow(std::move(cells_)); }

void Table::AddRawRow(std::vector<std::string> cells) {
  OBJALLOC_CHECK_EQ(cells.size(), header_.size())
      << "row width does not match header";
  rows_.push_back(std::move(cells));
}

void Table::WriteAligned(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << "\n";
  };
  write_row(header_);
  size_t rule = 0;
  for (size_t w : widths) rule += w + 2;
  os << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) write_row(row);
}

}  // namespace objalloc::util
