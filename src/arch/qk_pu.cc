#include "arch/qk_pu.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <unordered_map>

#include "common/check.h"
#include "common/math_util.h"
#include "core/bit_serial.h"
#include "energy/tech.h"

namespace pade {

namespace {

/** Extra per-plane cycles for weighted shift-and-accumulate. */
constexpr double kBitShiftCyclesPerPlane = 0.2;

/**
 * Prefetch FIFO depth without OOE: a simple double-buffered lane can
 * overlap a few upcoming keys' first planes, but cannot reorder around
 * a stalled key the way the scoreboard-driven OOE engine can.
 */
constexpr int kInorderWindow = 4;

/** One key's bit-serial job on a lane. */
struct KeyTask
{
    int key = 0;
    int needed_planes = 0;
    /** Rows still active at plane r (for energy scaling). */
    std::array<uint8_t, 8> active{};
    /** Prefetched per-plane ready times (independent-fetch mode). */
    std::vector<double> plane_ready;
};

/** Lane state for the discrete-event replay. */
struct Lane
{
    double t_ns = 0.0;
    std::deque<int> pending;      //!< indices into the task vector
    struct Inflight
    {
        int task = 0;
        int plane = 0;
        double ready_ns = 0.0;
    };
    std::vector<Inflight> inflight;
    double busy_cycles = 0.0;
    double stall_cycles = 0.0;
    double intra_cycles = 0.0;
    double shift_cycles = 0.0;

    bool
    done() const
    {
        return pending.empty() && inflight.empty();
    }
};

} // namespace

QkPuResult
simulateQkPu(const ArchConfig &cfg, const QuantizedHead &head,
             const Matrix<uint8_t> &planes, const std::vector<int> &order,
             HbmModel &hbm, const KAddressMap &kmap, double start_ns)
{
    const int p = planes.rows();
    const int s = planes.cols();
    const int h = head.k.values.cols();
    const int plane_bytes = head.k_planes.planeBytes();
    const int bits = head.k_planes.numPlanes();
    const int passes = static_cast<int>(ceilDiv(h, cfg.lane_dim));
    // planeWork's GSAT geometry, checked once per call: a zero
    // subgroup or mux count would divide by zero or loop forever.
    PADE_CHECK_GE(cfg.subgroup, 1);
    PADE_CHECK_LE(cfg.subgroup, 64);
    PADE_CHECK_GE(cfg.muxes, 1);

    QkPuResult res;

    // With the guard enabled, fetching plane r+1 depends on plane r's
    // pruning decision (the paper's Challenge 2); without it, every
    // plane is known-needed and streams latency-free.
    const bool dependent_fetch = cfg.enable_guard;

    // Build task bundles: shared-K prefill uses one bundle whose plane
    // demand is the max over rows; decode streams per-row keys.
    const int bundles = cfg.shared_k ? 1 : p;
    std::vector<std::vector<KeyTask>> tasks(bundles);
    for (int b = 0; b < bundles; b++) {
        auto &list = tasks[b];
        list.reserve(s);
        for (int j : order) {
            KeyTask task;
            task.key = j;
            if (cfg.shared_k) {
                for (int i = 0; i < p; i++) {
                    const int pl = planes.at(i, j);
                    task.needed_planes = std::max(task.needed_planes,
                                                  pl);
                    for (int r = 0; r < pl && r < 8; r++)
                        task.active[r]++;
                }
            } else {
                task.needed_planes = planes.at(b, j);
                for (int r = 0; r < task.needed_planes && r < 8; r++)
                    task.active[r] = 1;
            }
            if (task.needed_planes > 0)
                list.push_back(task);
        }
    }

    // Shard tasks over lanes (round-robin in scan order).
    const int lanes_total = bundles * cfg.lanes_per_row;
    std::vector<Lane> lanes(lanes_total);
    std::vector<std::vector<KeyTask> *> lane_tasks(lanes_total);
    for (int b = 0; b < bundles; b++) {
        for (size_t idx = 0; idx < tasks[b].size(); idx++) {
            const int lane_id = b * cfg.lanes_per_row +
                static_cast<int>(idx % cfg.lanes_per_row);
            lanes[lane_id].pending.push_back(static_cast<int>(idx));
        }
        for (int l = 0; l < cfg.lanes_per_row; l++)
            lane_tasks[b * cfg.lanes_per_row + l] = &tasks[b];
    }
    for (auto &lane : lanes)
        lane.t_ns = start_ns;

    const int max_inflight = cfg.enable_ooe ? cfg.scoreboard_entries :
        (dependent_fetch ? kInorderWindow : cfg.scoreboard_entries);
    const double ns_per_cycle = tech::kNsPerCycle;
    const double sram_per_byte = 0.6; // KV buffer ~ 320 KB class

    // Burst-coalescing cache: adjacent keys' planes share DRAM bursts
    // in the plane-major layout; the BS scheduler merges such requests
    // (paper: "enabling memory request merging"). Holds burst-id ->
    // completion time. Bypassed when result reuse is off (those
    // refetches are the modelled inefficiency).
    std::unordered_map<uint64_t, double> burst_cache;
    const uint64_t burst = static_cast<uint64_t>(
        hbm.config().burst_bytes);

    auto fetchBytes = [&](uint64_t addr, uint32_t bytes, double now,
                          bool coalesce) {
        if (!coalesce) {
            const HbmAccess acc = hbm.read(addr, bytes, now);
            res.sram_pj += bytes * sram_per_byte; // stage into KV SRAM
            return acc.complete_ns;
        }
        double ready = now;
        const uint64_t first = addr / burst;
        const uint64_t last = (addr + bytes - 1) / burst;
        for (uint64_t bid = first; bid <= last; bid++) {
            auto it = burst_cache.find(bid);
            if (it != burst_cache.end()) {
                ready = std::max(ready, it->second);
                continue;
            }
            const HbmAccess acc = hbm.read(bid * burst,
                                           hbm.config().burst_bytes,
                                           now);
            burst_cache[bid] = acc.complete_ns;
            res.sram_pj += hbm.config().burst_bytes * sram_per_byte;
            ready = std::max(ready, acc.complete_ns);
        }
        return ready;
    };

    auto issue = [&](Lane &lane, int bundle, int task_idx, int plane) {
        KeyTask &task = (*lane_tasks[bundle])[task_idx];
        if (!dependent_fetch) {
            // Known-needed planes stream from the start of the run
            // (pure prefetch; channel occupancy paces the stream).
            if (task.plane_ready.empty()) {
                task.plane_ready.resize(task.needed_planes);
                for (int r = 0; r < task.needed_planes; r++) {
                    task.plane_ready[r] = fetchBytes(
                        kmap.address(task.key, r),
                        static_cast<uint32_t>(plane_bytes), start_ns,
                        true);
                }
            }
            lane.inflight.push_back({task_idx, plane,
                                     task.plane_ready[plane]});
            return;
        }
        // Dependent fetch: one outstanding plane per key. The MSB
        // plane of every key is known-needed, so the stream prefetcher
        // issues it from the start; deeper planes wait for the pruning
        // decision. Without result reuse the PE refetches all prior
        // planes each round (paper §V-C motivation).
        const uint64_t addr = kmap.address(task.key, plane);
        const uint32_t bytes = cfg.result_reuse ?
            static_cast<uint32_t>(plane_bytes) :
            static_cast<uint32_t>(plane_bytes) * (plane + 1);
        const double when = plane == 0 ? start_ns : lane.t_ns;
        const double ready = fetchBytes(addr, bytes, when,
                                        cfg.result_reuse);
        lane.inflight.push_back({task_idx, plane, ready});
    };

    // Discrete-event loop: always advance the earliest non-done lane.
    while (true) {
        Lane *next = nullptr;
        int next_bundle = 0;
        for (int l = 0; l < lanes_total; l++) {
            if (lanes[l].done())
                continue;
            if (!next || lanes[l].t_ns < next->t_ns) {
                next = &lanes[l];
                next_bundle = l / cfg.lanes_per_row;
            }
        }
        if (!next)
            break;
        Lane &lane = *next;

        // Refill scoreboard slots with new keys' first planes.
        while (static_cast<int>(lane.inflight.size()) < max_inflight &&
               !lane.pending.empty()) {
            const int task_idx = lane.pending.front();
            lane.pending.pop_front();
            issue(lane, next_bundle, task_idx, 0);
        }

        // Earliest-ready inflight plane.
        int ready = -1;
        double best_ready = 0.0;
        for (size_t k = 0; k < lane.inflight.size(); k++) {
            const auto &inf = lane.inflight[k];
            if (ready < 0 || inf.ready_ns < best_ready) {
                ready = static_cast<int>(k);
                best_ready = inf.ready_ns;
            }
        }
        assert(ready >= 0);

        if (best_ready > lane.t_ns) {
            // Nothing loaded yet: stall until the earliest plane lands.
            lane.stall_cycles += (best_ready - lane.t_ns) /
                ns_per_cycle;
            lane.t_ns = best_ready;
        }

        const auto inf = lane.inflight[ready];
        lane.inflight.erase(lane.inflight.begin() + ready);
        const KeyTask &task = (*lane_tasks[next_bundle])[inf.task];

        const PlaneWork work = planeWork(head.k_planes, task.key,
                                         inf.plane, cfg.subgroup,
                                         cfg.muxes);
        const int per_pass = cfg.enable_bs ? work.cycles_bs :
            work.cycles_naive;
        const int selected = cfg.enable_bs ? work.selected_bs :
            work.selected_naive;
        const double cycles = static_cast<double>(per_pass) * passes;

        // Imbalance beyond a perfectly balanced redistribution of the
        // same selected bits over all mux slots.
        const int groups = static_cast<int>(
            ceilDiv(std::min(h, cfg.lane_dim), cfg.subgroup));
        const double ideal = std::max<double>(
            passes,
            static_cast<double>(ceilDiv(selected,
                                        groups * cfg.muxes)));
        lane.intra_cycles += std::max(0.0, cycles - ideal);

        lane.busy_cycles += cycles;
        lane.shift_cycles += kBitShiftCyclesPerPlane;
        lane.t_ns += (cycles + kBitShiftCyclesPerPlane) * ns_per_cycle;

        // Energy: every still-active row computes this plane on its
        // own lane copy; the staged plane is broadcast-read once.
        const int active = cfg.shared_k ? task.active[inf.plane] : 1;
        res.sram_pj += plane_bytes * sram_per_byte;
        res.pe_lane_pj += active *
            (selected * tech::kBitSerialAddPj + tech::kShiftAccPj);
        res.scoreboard_pj += active *
            (tech::kScoreboardRdPj + tech::kScoreboardWrPj);
        res.decision_pj += active * 2.0 * tech::kCmp32Pj;
        res.scheduler_pj += active * tech::kCmp32Pj; // BS mode select

        if (inf.plane + 1 < task.needed_planes)
            issue(lane, next_bundle, inf.task, inf.plane + 1);
    }

    // Makespan and inter-lane imbalance.
    double end_ns = start_ns;
    for (const auto &lane : lanes)
        end_ns = std::max(end_ns, lane.t_ns);
    for (const auto &lane : lanes) {
        res.busy_cycles += lane.busy_cycles;
        res.dram_stall_cycles += lane.stall_cycles;
        res.intra_pe_stall_cycles += lane.intra_cycles;
        res.bit_shift_cycles += lane.shift_cycles;
        res.inter_pe_stall_cycles += (end_ns - lane.t_ns) /
            ns_per_cycle;
    }
    res.makespan_ns = end_ns - start_ns;

    // Query-side energy: BUI LUT generation (p rows x bits interval
    // pairs, one adder pass over H each) plus threshold updates.
    res.bui_pj += static_cast<double>(p) *
        (h * tech::kInt8AddPj + bits * 2.0 * tech::kInt32AddPj);
    res.compute_pj = res.pe_lane_pj + res.scoreboard_pj +
        res.decision_pj + res.bui_pj + res.scheduler_pj;
    return res;
}

} // namespace pade
