// Contract-macro tests: every XF_CHECK* variant throws xfraud::CheckError
// with file:line, the condition text, and the streamed message; passing
// conditions are free of observable effects. XF_DCHECK build-mode semantics
// are covered separately by dcheck_semantics.cc, which is compiled twice
// (with and without NDEBUG) into the xfraud_dcheck_{on,off}_test binaries.

#include <string>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/nn/tensor.h"

namespace xfraud {
namespace {

std::string FailureMessage(void (*fn)()) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected CheckError";
  return "";
}

TEST(CheckTest, PassingCheckIsSilent) {
  XF_CHECK(1 + 1 == 2);
  XF_CHECK_EQ(2, 2);
  XF_CHECK_NE(2, 3);
  XF_CHECK_LT(2, 3);
  XF_CHECK_LE(3, 3);
  XF_CHECK_GT(3, 2);
  XF_CHECK_GE(3, 3);
  XF_CHECK_BOUNDS(0, 1);
  XF_CHECK_BOUNDS(4, 5);
}

TEST(CheckTest, FailureThrowsWithFileLineConditionAndMessage) {
  std::string what = FailureMessage([] {
    XF_CHECK(2 + 2 == 5) << "arithmetic drifted to " << 42;
  });
  EXPECT_NE(what.find("check_test.cc"), std::string::npos) << what;
  EXPECT_NE(what.find("Check failed"), std::string::npos) << what;
  EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
  EXPECT_NE(what.find("arithmetic drifted to 42"), std::string::npos) << what;
}

TEST(CheckTest, ComparisonVariantsIncludeBothOperands) {
  std::string what = FailureMessage([] {
    int lhs = 7;
    int rhs = 9;
    XF_CHECK_EQ(lhs, rhs);
  });
  EXPECT_NE(what.find("(7 vs 9)"), std::string::npos) << what;

  EXPECT_THROW(XF_CHECK_NE(5, 5), CheckError);
  EXPECT_THROW(XF_CHECK_LT(5, 5), CheckError);
  EXPECT_THROW(XF_CHECK_LE(6, 5), CheckError);
  EXPECT_THROW(XF_CHECK_GT(5, 5), CheckError);
  EXPECT_THROW(XF_CHECK_GE(4, 5), CheckError);
}

TEST(CheckTest, BoundsVariantReportsIndexAndBound) {
  std::string what = FailureMessage([] { XF_CHECK_BOUNDS(12, 10); });
  EXPECT_NE(what.find("index 12"), std::string::npos) << what;
  EXPECT_NE(what.find("bound 10"), std::string::npos) << what;
}

TEST(CheckTest, BoundsIsSignSafe) {
  // Negative signed index against an unsigned bound must fail (and not
  // wrap to a huge value that passes).
  EXPECT_THROW(XF_CHECK_BOUNDS(-1, size_t{100}), CheckError);
  EXPECT_THROW(XF_CHECK_BOUNDS(int64_t{-5}, int64_t{100}), CheckError);
  // Unsigned index against a signed negative bound fails too.
  EXPECT_THROW(XF_CHECK_BOUNDS(size_t{0}, -3), CheckError);
  XF_CHECK_BOUNDS(size_t{99}, size_t{100});
  XF_CHECK_BOUNDS(int64_t{99}, size_t{100});
}

TEST(CheckTest, ShapeVariantReportsBothShapes) {
  std::string what = FailureMessage([] {
    nn::Tensor a(2, 3);
    nn::Tensor b(4, 5);
    XF_CHECK_SHAPE(a, b);
  });
  EXPECT_NE(what.find("2x3"), std::string::npos) << what;
  EXPECT_NE(what.find("4x5"), std::string::npos) << what;

  nn::Tensor a(2, 3);
  nn::Tensor b(2, 3);
  XF_CHECK_SHAPE(a, b);
}

TEST(CheckTest, MacroBodyBindsAsSingleStatement) {
  // The if/else expansion must not steal a dangling else or require braces.
  bool reached_else = false;
  if (false)
    XF_CHECK(true);
  else
    reached_else = true;
  EXPECT_TRUE(reached_else);

  for (int i = 0; i < 3; ++i) XF_CHECK(i < 3) << "loop body " << i;
}

TEST(CheckTest, CheckErrorIsALogicError) {
  // Callers that cannot continue may catch std::logic_error generically.
  try {
    XF_CHECK(false) << "boom";
    FAIL() << "unreachable";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(CheckTest, LibraryContractsFireThroughPublicApi) {
  // Spot-check that the threaded contracts are reachable: mismatched shapes
  // in Tensor::AddInPlace violate its XF_CHECK_SHAPE precondition.
  nn::Tensor a(2, 2);
  nn::Tensor b(3, 2);
  EXPECT_THROW(a.AddInPlace(b), CheckError);
}

}  // namespace
}  // namespace xfraud
