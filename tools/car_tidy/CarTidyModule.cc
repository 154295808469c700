// car-tidy: the repo's project-specific clang-tidy checks, built as an
// out-of-tree plugin and loaded with `clang-tidy --load=libcar_tidy_checks.so
// --checks=...,car-*` (the lint preset wires this up; see the root
// CMakeLists and docs/architecture.md).
#include "CheckOnBoundaryCheck.h"
#include "NoAllocInHotPathCheck.h"
#include "NoRawVirtualTimeArithmeticCheck.h"
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

namespace clang::tidy {

namespace car {

class CarTidyModule : public ClangTidyModule {
 public:
  void addCheckFactories(ClangTidyCheckFactories &Factories) override {
    Factories.registerCheck<NoAllocInHotPathCheck>("car-no-alloc-in-hot-path");
    Factories.registerCheck<CheckOnBoundaryCheck>("car-check-on-boundary");
    Factories.registerCheck<NoRawVirtualTimeArithmeticCheck>(
        "car-no-raw-virtual-time-arithmetic");
  }
};

}  // namespace car

static ClangTidyModuleRegistry::Add<car::CarTidyModule> X(
    "car-module", "CAR repo invariants: hot-path allocation, boundary contracts, "
                  "timeline arithmetic.");

// Anchor so the registration above survives linking.
volatile int CarTidyModuleAnchorSource = 0;

}  // namespace clang::tidy
