/**
 * @file
 * BUI-enabled Guarded Filtering (BUI-GF) — paper §IV-A, Fig. 7.
 *
 * Maintains the running max of score *lower bounds* for one query row
 * and derives the pruning threshold T = max(LB) - alpha * radius. A key
 * is pruned the moment its *upper* bound falls below T: softmax decay
 * (softmax(x0) < e^{-delta}) guarantees its contribution is negligible,
 * and the uncertainty interval guards against bit-serial estimation
 * error (the paper's Challenge 1).
 *
 * `radius` is specified in logit units (paper default 5, i.e. pruned
 * tokens contribute < e^-5 relative mass at alpha = 1); it is converted
 * into the integer score domain through the dequantization scale.
 *
 * guardedKeyScore() is the per-plane loop of the kScalar, kPopcount
 * and AVX2 kernels: add a plane's contribution, fold the lower bound
 * into the guard, stop at the first plane whose upper bound falls
 * below the threshold. The AVX-512BW tile kernel reaches the same
 * state without the loop (all planes at once, then settle()). The
 * guard step is force-inlined because it is also compiled inside
 * the ISA-specific translation units under core/simd/: an
 * out-of-line copy emitted there (a COMDAT symbol) could be the one
 * the linker keeps for baseline callers, and would then fault on
 * CPUs without that ISA.
 */

#ifndef PADE_CORE_GUARD_FILTER_H
#define PADE_CORE_GUARD_FILTER_H

#include <algorithm>
#include <cstdint>

/** Inline even without optimization (see the file comment). */
#define PADE_ALWAYS_INLINE inline __attribute__((always_inline))

namespace pade {

/** Threshold state for one query row. */
class GuardFilter
{
  public:
    /**
     * @param alpha guard-band fraction in [0, 1]; 1 keeps the full
     *        radius (conservative), smaller values prune harder
     * @param radius guard band in logit units (paper default 5), >= 0
     * @param logit_scale integer-score -> logit conversion factor, > 0
     *
     * Out-of-range values abort in every build type: a negative
     * margin would read every threshold as -inf and silently turn
     * pruning off. A margin past INT64_MAX saturates to INT64_MAX.
     */
    GuardFilter(double alpha, double radius, double logit_scale);

    /** Fold a score lower bound into the row max (paper Step 0). */
    PADE_ALWAYS_INLINE void
    observe(int64_t lower_bound)
    {
        if (!seen_ || lower_bound > max_lb_) {
            max_lb_ = lower_bound;
            seen_ = true;
            updates_++;
        }
    }

    /**
     * Current integer-domain threshold max(LB) - margin, saturated at
     * INT64_MIN (the floor form cannot overflow: margin >= 0); -inf
     * until the first observe.
     */
    PADE_ALWAYS_INLINE int64_t
    threshold() const
    {
        if (!seen_)
            return INT64_MIN;
        return std::max(max_lb_, INT64_MIN + margin_int_) - margin_int_;
    }

    /** True if a key with this upper bound should be pruned. */
    PADE_ALWAYS_INLINE bool
    shouldPrune(int64_t upper_bound) const
    {
        return seen_ && upper_bound < threshold();
    }

    /** Number of threshold-raising updates (hardware activity). */
    uint64_t updates() const { return updates_; }

    int64_t maxLowerBound() const { return max_lb_; }

    /** True once any lower bound has been observed. */
    bool seen() const { return seen_; }

    /** Integer-domain margin alpha * radius / logit_scale, >= 0. */
    int64_t margin() const { return margin_int_; }

    /**
     * Jump to the state a run of observe() calls leaves behind: row
     * max @p max_lb, seen, and @p updates more threshold-raising
     * updates. A kernel that scores a key's planes without the
     * per-plane loop computes both and settles once per key.
     */
    PADE_ALWAYS_INLINE void
    settle(int64_t max_lb, uint64_t updates)
    {
        max_lb_ = max_lb;
        seen_ = true;
        updates_ += updates;
    }

  private:
    int64_t margin_int_;
    int64_t max_lb_ = INT64_MIN;
    bool seen_ = false;
    uint64_t updates_ = 0;
};

/** Outcome of one key's guarded bit-serial scan. */
struct KeyScore
{
    int64_t score;  //!< partial score S^{planes-1} (exact if !pruned)
    int planes;     //!< planes consumed, 1..nplanes
    bool pruned;    //!< the guard terminated the key
};

/**
 * The per-key BUI-GF loop: for r = 0.. @p nplanes - 1, add
 * @p delta(r) (plane r's weighted contribution) to the score, fold
 * score + lo[r] into @p guard, and when @p prune is set return at the
 * first plane whose upper bound score + hi[r] is below the threshold.
 * With @p prune clear (the dense ablation) the guard still observes
 * every plane, so threshold-update counts match the pruning run's.
 */
template <class PlaneDelta>
PADE_ALWAYS_INLINE KeyScore
guardedKeyScore(GuardFilter &guard, const int64_t *lo,
                const int64_t *hi, int nplanes, bool prune,
                PlaneDelta &&delta)
{
    int64_t score = 0;
    for (int r = 0; r < nplanes; r++) {
        score += delta(r);
        guard.observe(score + lo[r]);
        if (prune && guard.shouldPrune(score + hi[r]))
            return {score, r + 1, true};
    }
    return {score, nplanes, false};
}

} // namespace pade

#endif // PADE_CORE_GUARD_FILTER_H
