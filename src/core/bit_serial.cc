#include "core/bit_serial.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/math_util.h"

namespace pade {
namespace {

/**
 * Extract @p size bits of a packed plane starting at bit @p base (the
 * bits of one GSAT sub-group), handling groups that straddle a word
 * boundary. Padding beyond the plane's column count is zero in the
 * packed storage, so the tail group needs no special casing beyond the
 * size mask. Requires size in [1, 64].
 */
uint64_t
groupBits(std::span<const uint64_t> words, int base, int size)
{
    const int w = base / 64;
    const int off = base % 64;
    uint64_t bits = words[w] >> off;
    if (off + size > 64)
        bits |= words[w + 1] << (64 - off);
    if (size < 64)
        bits &= (1ULL << size) - 1;
    return bits;
}

} // namespace

PlaneWork
planeWork(const BitPlaneSet &keys, int key, int plane, int subgroup,
          int muxes)
{
    assert(subgroup > 0 && subgroup <= 64 && muxes > 0);
    PlaneWork w;
    w.cycles_bs = 0;
    w.cycles_naive = 0;

    const int n = keys.numCols();
    auto words = keys.plane(key, plane);
    for (int base = 0; base < n; base += subgroup) {
        const int size = std::min(subgroup, n - base);
        const int ones =
            std::popcount(groupBits(words, base, size));
        const int zeros = size - ones;
        const int sel = std::min(ones, zeros);

        w.selected_naive += ones;
        w.selected_bs += sel;
        if (zeros < ones)
            w.zero_mode_groups++;

        w.cycles_bs = std::max(w.cycles_bs,
                               static_cast<int>(ceilDiv(sel, muxes)));
        w.cycles_naive = std::max(
            w.cycles_naive, static_cast<int>(ceilDiv(ones, muxes)));
    }
    // A plane always costs at least one cycle to issue/decide.
    w.cycles_bs = std::max(w.cycles_bs, 1);
    w.cycles_naive = std::max(w.cycles_naive, 1);
    return w;
}

void
workPrefixRow(const BitPlaneSet &keys, int key, int subgroup, int muxes,
              WorkPrefix *out)
{
    assert(keys.numPlanes() * keys.numCols() <= kMaxWorkPrefixElems);
    int bs = 0;
    int naive = 0;
    for (int r = 0; r < keys.numPlanes(); r++) {
        const PlaneWork w = planeWork(keys, key, r, subgroup, muxes);
        bs += w.selected_bs;
        naive += w.selected_naive;
        out[r] = {static_cast<uint16_t>(bs), static_cast<uint16_t>(naive)};
    }
}

int64_t
planeDelta(const QueryPlanes &q, const BitPlaneSet &keys, int key,
           int plane)
{
    assert(q.numCols() == keys.numCols());
    return static_cast<int64_t>(keys.planeWeight(plane)) *
        q.maskedSum(keys.plane(key, plane));
}

int64_t
planeDeltaScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
                 int key, int plane)
{
    assert(static_cast<int>(q.size()) == keys.numCols());
    return planeDeltaScalar(q, keys.plane(key, plane).data(),
                            keys.planeWeight(plane));
}

int64_t
planeDeltaScalar(std::span<const int8_t> q, const uint64_t *words,
                 int weight)
{
    const int nwords = static_cast<int>((q.size() + 63) / 64);
    int64_t sum = 0;
    for (int w = 0; w < nwords; w++) {
        uint64_t bits = words[w];
        while (bits) {
            const int b = __builtin_ctzll(bits);
            sum += q[w * 64 + b];
            bits &= bits - 1;
        }
    }
    return static_cast<int64_t>(weight) * sum;
}

int64_t
planeDeltaBs(std::span<const int8_t> q, const BitPlaneSet &keys, int key,
             int plane, int subgroup)
{
    assert(static_cast<int>(q.size()) == keys.numCols());
    assert(subgroup > 0 && subgroup <= 64);
    const int n = keys.numCols();
    auto words = keys.plane(key, plane);
    int64_t sum = 0;
    for (int base = 0; base < n; base += subgroup) {
        const int size = std::min(subgroup, n - base);
        const uint64_t bits = groupBits(words, base, size);
        const int ones = std::popcount(bits);
        const int zeros = size - ones;
        if (zeros < ones) {
            // 0-mode (Eq. 6): walk only the rarer zero bits and
            // recover the 1-side sum via the sub-group Qsum.
            int64_t qsum = 0;
            for (int d = 0; d < size; d++)
                qsum += q[base + d];
            uint64_t zbits = ~bits;
            if (size < 64)
                zbits &= (1ULL << size) - 1;
            int64_t zeros_sum = 0;
            while (zbits) {
                const int b = __builtin_ctzll(zbits);
                zeros_sum += q[base + b];
                zbits &= zbits - 1;
            }
            sum += qsum - zeros_sum;
        } else {
            // 1-mode: accumulate the set bits directly.
            uint64_t obits = bits;
            int64_t ones_sum = 0;
            while (obits) {
                const int b = __builtin_ctzll(obits);
                ones_sum += q[base + b];
                obits &= obits - 1;
            }
            sum += ones_sum;
        }
    }
    return static_cast<int64_t>(keys.planeWeight(plane)) * sum;
}

} // namespace pade
