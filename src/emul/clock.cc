#include "emul/clock.h"

namespace car::emul {

double EmulClock::now() const {
  util::MutexLock lock(mu_);
  return now_;
}

void EmulClock::advance_to(double t) {
  util::MutexLock lock(mu_);
  if (t > now_) now_ = t;
}

}  // namespace car::emul
