// car-no-alloc-in-hot-path
//
// Functions tagged CAR_HOT (util/attributes.h) are the per-slice / per-region
// kernels of the data plane — BufferPool exists precisely so they never touch
// the heap.  This check rejects, anywhere in a CAR_HOT function's body:
//
//   * operator new / new[] expressions
//   * malloc-family calls (malloc, calloc, realloc, aligned_alloc, strdup)
//   * growth calls on std::vector / std::string / std::deque /
//     std::unordered_map / std::map (push_back, emplace_back, resize,
//     reserve, insert, append, assign, emplace, operator+=)
//   * declaring a local allocating container (std::vector, std::string,
//     std::deque) — use std::array or a pooled buffer instead
//
// Expansions of CAR_CHECK* contract macros are exempt: their message
// arguments are evaluated only on the (cold) failure path.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::car {

class NoAllocInHotPathCheck : public ClangTidyCheck {
 public:
  NoAllocInHotPathCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}
  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace clang::tidy::car
