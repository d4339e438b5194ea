/**
 * @file
 * Shared helpers for the figure/table bench harnesses: standard
 * operating points (the paper's "standard" ~0%-loss and "aggressive"
 * ~1%-loss configurations), per-baseline keep-rate calibration at
 * matched accuracy, and common run wrappers.
 *
 * Conventions used by every bench:
 *  - retained-softmax-mass targets: standard = kStandardMass (0.99),
 *    aggressive = kAggressiveMass (0.95) — see the constants below
 *    for the task-score rationale and EXPERIMENTS.md for the mapping;
 *  - long sequences are simulated at a cap and scaled linearly
 *    (SimRequest::max_sim_seq), printed alongside the results;
 *  - calibration uses a guard radius of 10 logits so alpha in [0, 1]
 *    spans both operating points.
 */

#ifndef PADE_BENCH_COMMON_H
#define PADE_BENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/driver.h"
#include "baselines/accelerators.h"
#include "baselines/gpu_model.h"
#include "baselines/predictors.h"
#include "common/cli.h"
#include "common/math_util.h"
#include "common/table.h"
#include "core/pade_attention.h"
#include "runtime/thread_pool.h"

namespace pade {
namespace bench {

/**
 * Retained-mass targets of the two operating points (the single
 * source of truth for every bench). The standard point (0.99) maps to
 * a ~0.5% task-score delta under the metrics.h mapping (between the
 * paper's "0%" and "1%" rows); the aggressive point (0.95) tracks the
 * ~1%-loss row. Calibrated margins land in the paper's default
 * guard-band class (alpha*radius ~ 2.5-5 logits). See EXPERIMENTS.md.
 */
constexpr double kStandardMass = 0.99;
constexpr double kAggressiveMass = 0.95;
constexpr double kCalibRadius = 10.0;

/**
 * Process-wide worker pool shared by the bench harness; calibration
 * helpers fan their independent searches across it, and benches may
 * reuse it for their own sweeps.
 */
ThreadPool &benchPool();

/** PADE operating points for one workload. */
struct OperatingPoints
{
    double alpha_standard = 1.0;
    double alpha_aggressive = 0.5;
};

/** Calibrate both operating points for a request. */
OperatingPoints calibratePoints(SimRequest req);

/** Per-baseline keep rates calibrated to a retained-mass target. */
struct BaselineKeeps
{
    double sanger = 1.0;
    double dota = 1.0;
    double energon = 1.0;
    double spatten = 1.0;       //!< w/o finetune (noisy guidance)
    double spatten_ft = 1.0;    //!< finetuned
    double sofa = 1.0;
};

/**
 * Calibrate every baseline's mechanism on the same workload head.
 * @param cap keys used for calibration (costly masks are quadratic)
 */
BaselineKeeps calibrateBaselines(const SimRequest &req,
                                 double target_mass, int cap = 2048);

/** Build a calibration head (capped sequence) for a request. */
AttentionHead calibrationHead(const SimRequest &req, int cap);

/** Run PADE at an operating point; returns full-model totals. */
SimOutcome runPade(const ArchConfig &cfg, SimRequest req, double alpha);

/** Analytic block dims matching a request's simulated block. */
AttentionDims blockDims(const SimRequest &req, int sim_seq);

/** One point of the serving cached-vs-repack decode measurement. */
struct ServingDecodePoint
{
    int ctx = 4096;        //!< prefill length (tokens)
    int steps = 8;         //!< decode tokens measured
    int head_dim = 128;
    int bits = 8;
    double locality = 0.5; //!< workload-generator locality knob
    uint64_t seed = 42;
    int reps = 1;          //!< best-of reps for the append component
};

/** Measured per-token decode costs of one point. */
struct ServingDecodeCost
{
    double append_us_per_tok = 0.0; //!< cache maintenance alone
    double cached_us_per_tok = 0.0; //!< incremental append + step
    double repack_us_per_tok = 0.0; //!< full history re-pack + step
    double keep_rate = 0.0;         //!< guard keep rate over the run
    int pages = 0;                  //!< final KvCache pages
    std::size_t cache_bytes = 0;    //!< final resident KV bytes
};

/**
 * Cached-vs-repack serving harness (examples/long_context_decode
 * drives it): prefill a KvCache to ctx tokens, decode `steps` tokens
 * incrementally (append + guarded DecodeEngine step), then decode
 * the same tokens rebuilding the cache from scratch per token. Also
 * times the append-only component at full context — the number that
 * must stay flat as ctx grows.
 */
ServingDecodeCost measureServingDecode(const ServingDecodePoint &pt,
                                       const PadeConfig &cfg);

/** Convenience stdout header for a bench. */
void banner(const std::string &title);

} // namespace bench
} // namespace pade

#endif // PADE_BENCH_COMMON_H
