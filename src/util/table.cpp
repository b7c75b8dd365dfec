#include "util/table.h"

#include <cstdio>
#include <sstream>

#include "util/assert.h"

namespace tint {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  TINT_ASSERT_MSG(rows_.empty(), "set_header must precede add_row");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  TINT_ASSERT_MSG(header_.empty() || row.size() == header_.size(),
                  "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::render() const {
  std::vector<size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  if (!title_.empty()) out << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out << "  ";
      out << row[i];
      for (size_t p = row[i].size(); p < widths[i]; ++p) out << ' ';
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    size_t total = 0;
    for (size_t i = 0; i < widths.size(); ++i) total += widths[i] + (i ? 2 : 0);
    out << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
  return out.str();
}

std::string Table::to_json() const {
  std::ostringstream out;
  const auto quote = [&out](const std::string& s) {
    out << '"';
    for (const char ch : s) {
      switch (ch) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        default: out << ch;
      }
    }
    out << '"';
  };
  const auto emit_row = [&](const std::vector<std::string>& row) {
    out << '[';
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      quote(row[i]);
    }
    out << ']';
  };
  out << "{\"title\":";
  quote(title_);
  out << ",\"header\":";
  emit_row(header_);
  out << ",\"rows\":[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (r) out << ',';
    emit_row(rows_[r]);
  }
  out << "]}";
  return out.str();
}

void Table::print() const {
  const std::string s = render();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

}  // namespace tint
