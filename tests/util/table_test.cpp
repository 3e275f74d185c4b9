#include "expert/util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "expert/util/assert.hpp"

namespace expert::util {
namespace {

TEST(Table, PrintsHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"}).add_row({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table(std::vector<std::string>{}), ContractViolation);
}

TEST(Fmt, FixedDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(FmtSignedPct, SignsAndScales) {
  EXPECT_EQ(fmt_signed_pct(0.33), "+33%");
  EXPECT_EQ(fmt_signed_pct(-0.05), "-5%");
  EXPECT_EQ(fmt_signed_pct(0.125, 1), "+12.5%");
}

}  // namespace
}  // namespace expert::util
