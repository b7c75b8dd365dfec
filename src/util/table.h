// Plain-text table rendering for bench output.
//
// Every bench binary prints the rows/series of the paper figure it
// reproduces; this helper keeps the formatting consistent and diffable.
#pragma once

#include <string>
#include <vector>

namespace tint {

class Table {
 public:
  explicit Table(std::string title = {});

  // Sets the header row. Must be called before add_row.
  void set_header(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  // Convenience for mixed string/number rows.
  static std::string fmt(double v, int precision = 3);

  // Renders with aligned columns; includes title and header rule.
  std::string render() const;

  // Renders as a JSON object {"title": ..., "header": [...],
  // "rows": [[...], ...]} with all cells as strings.
  std::string to_json() const;

  // Renders and writes to stdout.
  void print() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tint
