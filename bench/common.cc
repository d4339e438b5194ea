#include "bench/common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>

#include "serving/decode_engine.h"
#include "serving/kv_cache.h"

namespace pade {
namespace bench {

ThreadPool &
benchPool()
{
    static ThreadPool pool;
    return pool;
}

OperatingPoints
calibratePoints(SimRequest req)
{
    req.radius = kCalibRadius;
    OperatingPoints pts;
    // The two operating points are independent binary searches; run
    // them side by side on the shared pool.
    parallelFor(benchPool(), 2, [&](int i) {
        if (i == 0)
            pts.alpha_standard = calibrateAlpha(req, kStandardMass);
        else
            pts.alpha_aggressive = calibrateAlpha(req, kAggressiveMass);
    });
    return pts;
}

AttentionHead
calibrationHead(const SimRequest &req, int cap)
{
    WorkloadSpec spec = WorkloadSpec::fromPresets(
        req.model, req.dataset, 8, req.seed);
    spec.seq_len = std::min(req.dataset.seq_len, cap);
    spec.qat_uniform = req.qat;
    return generateHead(spec);
}

BaselineKeeps
calibrateBaselines(const SimRequest &req, double target_mass, int cap)
{
    const AttentionHead head = calibrationHead(req, cap);
    const int s = head.k.rows();
    BaselineKeeps keeps;

    // Un-finetuned prev-layer guidance correlates weakly with the
    // current layer: noise comparable to the logit spread. Finetuning
    // restores a tight estimate.
    constexpr double kNoFtSigma = 8.0;
    constexpr double kFtSigma = 1.0;

    // Each baseline's knob search only reads the shared head, so the
    // six calibrations fan out across the bench pool.
    const std::function<void()> tasks[] = {
        [&] {
            keeps.sanger = lowBitMask(
                head, 4,
                calibrateKnob([&head](double m) {
                    return lowBitMask(head, 4, m);
                }, target_mass, 0.0, 25.0)).keep_rate;
        },
        [&] {
            keeps.dota = lowRankMask(
                head, 16,
                calibrateKnob([&head](double m) {
                    return lowRankMask(head, 16, m);
                }, target_mass, 0.0, 25.0)).keep_rate;
        },
        [&] {
            keeps.energon = progressiveMask(
                head, 0.5,
                calibrateKnob([&head](double m) {
                    return progressiveMask(head, 0.5, m);
                }, target_mass, 0.0, 25.0)).keep_rate;
        },
        [&] {
            keeps.spatten = noisyTopkMask(
                head,
                static_cast<int>(calibrateKnob([&head](double k) {
                    return noisyTopkMask(
                        head, std::max(1, static_cast<int>(k)),
                        kNoFtSigma);
                }, target_mass, 1.0, s)), kNoFtSigma).keep_rate;
        },
        [&] {
            keeps.spatten_ft = noisyTopkMask(
                head,
                static_cast<int>(calibrateKnob([&head](double k) {
                    return noisyTopkMask(
                        head, std::max(1, static_cast<int>(k)),
                        kFtSigma);
                }, target_mass, 1.0, s)), kFtSigma).keep_rate;
        },
        [&] {
            keeps.sofa = logDomainTopkMask(
                head,
                static_cast<int>(calibrateKnob([&head](double k) {
                    return logDomainTopkMask(
                        head, std::max(1, static_cast<int>(k)));
                }, target_mass, 1.0, s))).keep_rate;
        },
    };
    parallelFor(benchPool(), static_cast<int>(std::size(tasks)),
                [&tasks](int i) { tasks[i](); });
    return keeps;
}

SimOutcome
runPade(const ArchConfig &cfg, SimRequest req, double alpha)
{
    req.alpha = alpha;
    req.radius = kCalibRadius;
    return simulatePade(cfg, req);
}

AttentionDims
blockDims(const SimRequest &req, int sim_seq)
{
    AttentionDims d;
    d.p = req.decode ? 1 : 8;
    d.s = std::min(req.dataset.seq_len, sim_seq);
    d.h = req.model.head_dim;
    d.exec_bits = req.bits;
    return d;
}

ServingDecodeCost
measureServingDecode(const ServingDecodePoint &pt,
                     const PadeConfig &cfg)
{
    using Clock = std::chrono::steady_clock;
    const auto usSince = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::micro>(
                   Clock::now() - t0).count();
    };

    WorkloadSpec spec;
    spec.seq_len = pt.ctx + pt.steps;
    spec.query_len = pt.steps;
    spec.head_dim = pt.head_dim;
    spec.locality = pt.locality;
    spec.seed = pt.seed;
    const QuantizedHead head =
        quantizeHead(generateHead(spec), pt.bits);

    KvCacheConfig kc;
    kc.head_dim = pt.head_dim;
    kc.bits = pt.bits;
    kc.subgroup = cfg.subgroup;
    kc.muxes = cfg.muxes;
    kc.v_scale = head.v.params.scale;

    ServingDecodeCost cost;
    MatrixF out(1, pt.head_dim);

    // Cache-maintenance component alone: appends at full context,
    // best of reps (each rep rebuilds to keep the work identical).
    for (int r = 0; r < std::max(1, pt.reps); r++) {
        KvCache cache(kc);
        const auto t0 = Clock::now();
        for (int t = 0; t < pt.ctx; t++)
            cache.appendToken(head.k.values.row(t),
                              head.v.values.row(t));
        const double us = usSince(t0) / pt.ctx;
        if (r == 0 || us < cost.append_us_per_tok)
            cost.append_us_per_tok = us;
    }

    // Incremental path: prefill once (untimed), then append + guarded
    // step per token.
    {
        KvCache cache(kc);
        for (int t = 0; t < pt.ctx; t++)
            cache.appendToken(head.k.values.row(t),
                              head.v.values.row(t));
        DecodeEngine engine(cfg);
        const auto t0 = Clock::now();
        for (int t = 0; t < pt.steps; t++) {
            const int pos = pt.ctx + t;
            cache.appendToken(head.k.values.row(pos),
                              head.v.values.row(pos));
            engine.stepGroup(cache, head.q.values, t, 1,
                             head.logit_scale, out, 0);
        }
        cost.cached_us_per_tok = usSince(t0) / pt.steps;
        cost.keep_rate = engine.stats().keepRate();
        cost.pages = cache.numPages();
        cost.cache_bytes = cache.bytesUsed();
    }

    // Re-pack baseline: rebuild the whole cache (pack + PlaneWork
    // over the full history) every token, then the identical step —
    // the per-step cost model the serving layer replaced.
    {
        DecodeEngine engine(cfg);
        const auto t0 = Clock::now();
        for (int t = 0; t < pt.steps; t++) {
            KvCache fresh(kc);
            for (int p = 0; p <= pt.ctx + t; p++)
                fresh.appendToken(head.k.values.row(p),
                                  head.v.values.row(p));
            engine.stepGroup(fresh, head.q.values, t, 1,
                             head.logit_scale, out, 0);
        }
        cost.repack_us_per_tok = usSince(t0) / pt.steps;
    }
    return cost;
}

void
banner(const std::string &title)
{
    std::printf("\n================================================\n"
                "%s\n"
                "================================================\n",
                title.c_str());
}

} // namespace bench
} // namespace pade
