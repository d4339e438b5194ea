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
    // Saturate instead of letting llround overflow to a negative
    // margin (and leave a NaN from 0 * inf at the top, never pruning).
    const double margin = alpha * radius / logit_scale;
    margin_int_ = margin < 0x1p63
        ? static_cast<int64_t>(std::llround(margin))
        : INT64_MAX;
}

} // namespace pade
