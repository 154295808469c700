// car-no-raw-virtual-time-arithmetic
//
// The emulator's timeline (virtual seconds, and the sliced-step id grid the
// timing replay walks) has two arithmetic traps that were both hit before
// this check existed:
//
//   * sliced-id grid math: `base * num_slices + slice` overflows uint64_t on
//     adversarial plans, silently aliasing two slices onto one id.  The
//     overflow-checked helpers — recovery::sliced_id and
//     PlanArena::sliced_id (recovery/plan_arena.h) — exist for exactly
//     this; writing the raw mul-plus-add by hand bypasses the check.
//
//   * raw virtual-time arithmetic on EmulClock::now() outside the emulator
//     layer: consumers must go through the clock/link helpers (advance_to,
//     LinkPath::reserve/reserve_by) so the timeline stays monotonic and
//     reproducible; src/emul/ itself — the layer that implements those
//     helpers — is exempt.
//
// Flagged shapes:
//   <x> * <...num_slices...> + <y>   (outside a function named sliced_id)
//   clock.now() <op> <expr>          (outside src/emul/)
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::car {

class NoRawVirtualTimeArithmeticCheck : public ClangTidyCheck {
 public:
  NoRawVirtualTimeArithmeticCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}
  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace clang::tidy::car
