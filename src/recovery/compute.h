// Shared execution of a compute step's linear combination.
//
// The emulator (emul/cluster.cc) and the fault-aware BatchDriver
// (inject/driver.cc) both execute compute steps over real chunk buffers,
// reading inputs and coefficients from the same PlanArena columns; this
// helper is the single implementation of the step contract: every gathered
// input has the same size, the step's declared compute volume equals
// |inputs| * chunk size, and the output is the fused GF(2^8) combination
// sum_i coeff_i * input_i.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "rs/code.h"
#include "util/attributes.h"

namespace car::recovery {

/// Widest linear combination a GF(2^8) code can express: a step combining
/// more than 256 inputs would need more distinct coefficients than the
/// field has non-zero elements.  Bounds the scratch arrays in
/// execute_compute_slice so the per-slice hot path never allocates.
inline constexpr std::size_t kMaxComputeInputs = 256;

/// Slice-granular core (recovery/plan_arena.h): evaluates the linear
/// combination sum_i coeffs[i] * inputs[i] over bytes
/// [offset, offset + out.size()) of each full-chunk input, writing the
/// result into `out`.  `step_bytes` is
/// the *sliced* step's declared compute volume, so it must equal
/// out.size() * |inputs|; `coeffs` holds one coefficient per input; every
/// input buffer must hold a full chunk of `chunk_size` bytes.  The values
/// come straight from the arena columns, so no caller materialises a
/// PlanStep.  `out` must not alias any input (the kernels' linear_combine
/// contract): both callers write straight into the step's own output
/// buffer, which no input is (the BatchDriver's is made private first,
/// copy-on-write).  Throws util::StateError on
/// contract violations; `context` prefixes the failure messages so callers
/// keep their own error voice ("Cluster::execute_arena", "BatchDriver").
CAR_HOT void execute_compute_slice(std::span<const std::uint8_t> coeffs,
                                   std::uint64_t step_bytes,
                                   std::span<const rs::Chunk* const> inputs,
                                   std::uint64_t chunk_size,
                                   std::uint64_t offset,
                                   std::span<std::uint8_t> out,
                                   const std::string& context);

}  // namespace car::recovery
