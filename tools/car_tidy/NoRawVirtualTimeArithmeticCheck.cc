#include "NoRawVirtualTimeArithmeticCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang::tidy::car {

void NoRawVirtualTimeArithmeticCheck::registerMatchers(MatchFinder *Finder) {
  // Anything whose spelled name contains "num_slices": a variable, a data
  // member (num_slices_), or an accessor call (plan.num_slices()).
  const auto NumSlices = expr(ignoringParenImpCasts(
      anyOf(declRefExpr(to(namedDecl(matchesName("num_slices")))),
            memberExpr(member(matchesName("num_slices"))),
            cxxMemberCallExpr(
                callee(cxxMethodDecl(matchesName("num_slices")))))));

  const auto GridMul = binaryOperator(hasOperatorName("*"),
                                      hasEitherOperand(NumSlices));
  Finder->addMatcher(
      binaryOperator(hasOperatorName("+"),
                     hasEitherOperand(ignoringParenImpCasts(GridMul)),
                     unless(hasAncestor(functionDecl(hasName("sliced_id")))))
          .bind("grid"),
      this);

  const auto NowCall = cxxMemberCallExpr(callee(
      cxxMethodDecl(hasName("now"), ofClass(hasName("EmulClock")))));
  Finder->addMatcher(
      binaryOperator(hasAnyOperatorName("+", "-", "*", "/"),
                     hasEitherOperand(ignoringParenImpCasts(NowCall)))
          .bind("time"),
      this);
}

void NoRawVirtualTimeArithmeticCheck::check(
    const MatchFinder::MatchResult &Result) {
  if (const auto *Grid = Result.Nodes.getNodeAs<BinaryOperator>("grid")) {
    diag(Grid->getOperatorLoc(),
         "raw sliced-id arithmetic ('base * num_slices + slice'); use the "
         "overflow-checked recovery::sliced_id / PlanArena::sliced_id "
         "helpers instead");
    return;
  }
  const auto *Time = Result.Nodes.getNodeAs<BinaryOperator>("time");
  if (Time == nullptr) return;
  // The emulator layer implements the timeline helpers; arithmetic on the
  // clock is its job.  Everyone else must go through those helpers.
  const SourceManager &SM = *Result.SourceManager;
  const StringRef File =
      SM.getFilename(SM.getExpansionLoc(Time->getOperatorLoc()));
  if (File.contains("/emul/")) return;
  diag(Time->getOperatorLoc(),
       "raw arithmetic on EmulClock::now(); virtual-time math outside "
       "src/emul must go through the clock/link helpers (advance_to, "
       "LinkPath::reserve/reserve_by)");
}

}  // namespace clang::tidy::car
