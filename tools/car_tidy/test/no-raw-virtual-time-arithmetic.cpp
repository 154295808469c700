// Fixture for car-no-raw-virtual-time-arithmetic.  Mock arena/clock types
// stand in for recovery/plan_arena.h and emul/clock.h.  This fixture lives
// outside any src/emul/ path, so the now()-arithmetic exemption for the
// emulator layer does not apply here (see the check header).
using uint64 = unsigned long long;

namespace car::emul {
class EmulClock {
 public:
  double now() const;
  void advance_to(double t);
};
}  // namespace car::emul

namespace car::recovery {
uint64 sliced_id(uint64 base_step, uint64 num_slices, uint64 slice);

class PlanArena {
 public:
  uint64 num_slices() const { return num_slices_; }
  uint64 sliced_id(uint64 base, uint64 slice) const;

  uint64 raw_grid_data_member(uint64 base, uint64 slice) const {
    return base * num_slices_ + slice;  // EXPECT: raw sliced-id arithmetic
  }

 private:
  uint64 num_slices_ = 1;
};
}  // namespace car::recovery

// ---- violations -----------------------------------------------------------

uint64 raw_grid_variable(uint64 base, uint64 num_slices, uint64 slice) {
  return base * num_slices + slice;  // EXPECT: raw sliced-id arithmetic
}

uint64 raw_grid_accessor(const car::recovery::PlanArena &arena, uint64 base,
                         uint64 slice) {
  return base * arena.num_slices() + slice;  // EXPECT: raw sliced-id arithmetic
}

double raw_time_math(const car::emul::EmulClock &clock, double t_start) {
  return clock.now() - t_start;  // EXPECT: raw arithmetic on EmulClock::now()
}

// ---- non-findings ---------------------------------------------------------

// The overflow-checked helpers are the approved spelling.
uint64 grid_via_helper(const car::recovery::PlanArena &arena, uint64 base,
                       uint64 slice) {
  return arena.sliced_id(base, slice);
}

uint64 grid_via_free_helper(uint64 base, uint64 num_slices, uint64 slice) {
  return car::recovery::sliced_id(base, num_slices, slice);
}

// Multiplying by num_slices without the +slice tail is capacity math, not
// id construction (reserve(steps * num_slices) and friends).
uint64 capacity_math(uint64 steps, uint64 num_slices) {
  return steps * num_slices;
}

// Reading the clock without arithmetic, or advancing through the helper,
// is the approved use.
void time_via_helper(car::emul::EmulClock &clock, double deadline) {
  const double t = clock.now();
  if (t < deadline) clock.advance_to(deadline);
}
