#include "core/guard_filter.h"

#include <cmath>

#include "common/check.h"

namespace pade {

GuardFilter::GuardFilter(double alpha, double radius, double logit_scale)
{
    // Release-armed: constructed once per query row per step, never
    // per key, and a negative margin would disable pruning silently.
    PADE_CHECK(alpha >= 0.0 && alpha <= 1.0);
    PADE_CHECK(radius >= 0.0);
    PADE_CHECK(logit_scale > 0.0);
    // Margin below the best lower bound, converted to integer scores.
    // T = max(LB) - alpha * radius (paper Eq. 4): alpha = 1 keeps the
    // full guard band (most conservative); smaller alpha raises the
    // threshold toward the max and prunes more aggressively, matching
    // the paper's Fig. 16(b) sweep direction.
    margin_int_ = static_cast<int64_t>(
        std::llround(alpha * radius / logit_scale));
}

} // namespace pade
