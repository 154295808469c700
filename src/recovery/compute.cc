#include "recovery/compute.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "gf/region.h"
#include "util/check.h"

namespace car::recovery {

void execute_compute_slice(std::span<const std::uint8_t> coeffs,
                           std::uint64_t step_bytes,
                           std::span<const rs::Chunk* const> inputs,
                           std::uint64_t chunk_size, std::uint64_t offset,
                           std::span<std::uint8_t> out,
                           const std::string& context) {
  CAR_CHECK_STATE(inputs.size() == coeffs.size(),
                  context + ": gathered inputs do not match step arity");
  CAR_CHECK_STATE(!inputs.empty(), context + ": compute with no inputs");
  for (const rs::Chunk* buf : inputs) {
    CAR_CHECK_STATE(buf != nullptr, context + ": compute input missing");
  }
  // Buffer-size contract: every input of a linear combination must hold a
  // full chunk, the slice range must lie inside it, and the (sliced)
  // step's declared compute volume must equal |inputs| * slice bytes.
  for (const rs::Chunk* buf : inputs) {
    CAR_CHECK_STATE(buf->size() == chunk_size,
                    context + ": compute input size mismatch");
  }
  // Overflow-safe form of offset + out.size() <= chunk_size.
  CAR_CHECK_STATE(offset <= chunk_size && out.size() <= chunk_size - offset,
                  context + ": compute slice range [" +
                      std::to_string(offset) + ", +" +
                      std::to_string(out.size()) + ") exceeds the " +
                      std::to_string(chunk_size) + "-byte chunk");
  CAR_CHECK_STATE(
      step_bytes == static_cast<std::uint64_t>(out.size()) * inputs.size(),
      context + ": compute bytes do not equal inputs * slice size");
  CAR_CHECK_STATE(inputs.size() <= kMaxComputeInputs,
                  context + ": compute arity exceeds the GF(2^8) bound");

  // Stack scratch, not a vector: this runs once per slice, and
  // kMaxComputeInputs bounds the arity (checked above), so the hot path
  // allocates nothing.
  std::array<rs::ChunkView, kMaxComputeInputs> views;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    views[i] = rs::ChunkView(*inputs[i]).subspan(
        static_cast<std::size_t>(offset), out.size());
  }
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  gf::linear_combine_acc(coeffs, {views.data(), inputs.size()}, out);
}

}  // namespace car::recovery
