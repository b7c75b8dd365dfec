#include "util/table.h"

#include <gtest/gtest.h>

namespace tint {
namespace {

TEST(Table, RendersTitleHeaderAndRows) {
  Table t("My Table");
  t.set_header({"a", "bb", "ccc"});
  t.add_row({"1", "2", "3"});
  t.add_row({"1000", "2", "3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== My Table =="), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, ColumnsAligned) {
  Table t;
  t.set_header({"x", "y"});
  t.add_row({"longvalue", "1"});
  const std::string out = t.render();
  // Header row is padded to the widest cell of each column.
  const size_t header_end = out.find('\n');
  const size_t rule_end = out.find('\n', header_end + 1);
  const size_t row_end = out.find('\n', rule_end + 1);
  const std::string header = out.substr(0, header_end);
  const std::string row = out.substr(rule_end + 1, row_end - rule_end - 1);
  EXPECT_EQ(header.size(), row.size());
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(1.0, 0), "1");
  EXPECT_EQ(Table::fmt(-0.5, 1), "-0.5");
}

TEST(Table, NoHeaderStillRenders) {
  Table t;
  t.add_row({"a", "b"});
  EXPECT_NE(t.render().find("a  b"), std::string::npos);
}

TEST(Table, RowCount) {
  Table t;
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"a"});
  t.add_row({"b"});
  EXPECT_EQ(t.row_count(), 2u);
}

}  // namespace
}  // namespace tint
