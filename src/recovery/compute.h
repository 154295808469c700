// Shared execution of a compute PlanStep's linear combination.
//
// The emulator (emul/cluster.cc) and the fault-aware step loop
// (inject/driver.cc) both execute compute steps over real chunk buffers;
// this helper is the single implementation of the step contract they used to
// duplicate: every gathered input has the same size, the step's declared
// compute volume equals |inputs| * chunk size, and the output is the fused
// GF(2^8) combination sum_i coeff_i * input_i.
#pragma once

#include <span>
#include <string>

#include "recovery/plan.h"
#include "rs/code.h"
#include "util/attributes.h"

namespace car::recovery {

/// Widest linear combination a GF(2^8) code can express: a step combining
/// more than 256 inputs would need more distinct coefficients than the
/// field has non-zero elements.  Bounds the scratch arrays in
/// execute_compute_slice so the per-slice hot path never allocates.
inline constexpr std::size_t kMaxComputeInputs = 256;

/// Evaluates compute step `step` over `inputs` (one non-null buffer per
/// step.inputs entry, in the same order) and returns the combined chunk.
/// Throws util::StateError on any contract violation; `context` prefixes the
/// failure messages so callers keep their own error voice ("Cluster::execute",
/// "inject", ...).
[[nodiscard]] rs::Chunk execute_compute_step(
    const PlanStep& step, std::span<const rs::Chunk* const> inputs,
    const std::string& context);

/// Slice-granular variant (recovery/slice.h): evaluates `step`'s linear
/// combination over bytes [offset, offset + out.size()) of each full-chunk
/// input, writing the result into `out`.  `step` is the *sliced* step, so
/// its declared bytes must equal out.size() * |inputs|; every input buffer
/// must hold a full chunk of `chunk_size` bytes.  `out` must not alias any
/// input (the kernels' linear_combine contract) — executors stage it
/// through a pool lease.  Throws util::StateError on contract violations.
CAR_HOT void execute_compute_slice(const PlanStep& step,
                                   std::span<const rs::Chunk* const> inputs,
                                   std::uint64_t chunk_size,
                                   std::uint64_t offset,
                                   std::span<std::uint8_t> out,
                                   const std::string& context);

}  // namespace car::recovery
