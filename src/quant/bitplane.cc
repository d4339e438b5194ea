#include "quant/bitplane.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/check.h"

namespace pade {

BitPlaneSet::BitPlaneSet(const MatrixI8 &m, int bits)
    : BitPlaneSet(m.cols(), bits, m.rows())
{
    for (int row = 0; row < m.rows(); row++)
        appendToken(m.row(row));
}

uint64_t
BitPlaneSet::nextRevision()
{
    // Relaxed is enough: the counter only needs uniqueness, not
    // ordering with respect to other memory operations.
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

BitPlaneSet::BitPlaneSet(int cols, int bits, int capacity_rows)
    : cols_(cols), bits_(bits), words_((cols + 63) / 64),
      revision_(nextRevision())
{
    PADE_CHECK_GE(bits_, 2);
    PADE_CHECK_LE(bits_, 8);
    PADE_CHECK_GE(cols_, 0);
    PADE_CHECK_GE(capacity_rows, 0);
    storage_.reserve(static_cast<std::size_t>(capacity_rows) * bits_ *
                     words_);
}

void
BitPlaneSet::appendToken(std::span<const int8_t> row)
{
    PADE_CHECK_EQ(static_cast<int>(row.size()), cols_);
    if (bits_ < 8 && !row.empty()) {
        // Two's complement over the low bits_ bits represents v
        // exactly only in range; outside it the key would be stored
        // as another value, so check the row once, in every build.
        const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
        PADE_CHECK_GE(*lo, -(1 << (bits_ - 1)));
        PADE_CHECK_LE(*hi, (1 << (bits_ - 1)) - 1);
    }

    // Grow by one row block (bits_ planes of words_ words each);
    // within the reserved capacity this never reallocates, and the new
    // words start zeroed for the OR-packing below.
    revision_ = nextRevision();
    const int row_idx = rows_++;
    storage_.resize(storage_.size() +
                        static_cast<std::size_t>(bits_) * words_,
                    0);

    // Branch-free, like QueryPlanes::assign: key bits are data.
    uint64_t *base = storage_.data() + planeIndex(row_idx, 0);
    for (int col = 0; col < cols_; col++) {
        const unsigned u =
            static_cast<uint8_t>(row[col]) & ((1u << bits_) - 1);
        uint64_t *word = base + col / 64;
        for (int r = 0; r < bits_; r++)
            word[static_cast<std::size_t>(r) * words_] |=
                static_cast<uint64_t>((u >> (bits_ - 1 - r)) & 1u)
                << (col % 64);
    }
}

int
BitPlaneSet::planeWeight(int r) const
{
    PADE_DCHECK(r >= 0 && r < bits_);
    if (r == 0)
        return -(1 << (bits_ - 1));
    return 1 << (bits_ - 1 - r);
}

int
BitPlaneSet::remainingMagnitude(int r) const
{
    PADE_DCHECK(r >= 0 && r < bits_);
    return (1 << (bits_ - 1 - r)) - 1;
}

bool
BitPlaneSet::bit(int row, int r, int col) const
{
    PADE_DCHECK(col >= 0 && col < cols_);
    return (storage_[planeIndex(row, r) + col / 64] >> (col % 64)) & 1ULL;
}

std::span<const uint64_t>
BitPlaneSet::plane(int row, int r) const
{
    return {storage_.data() + planeIndex(row, r),
            static_cast<size_t>(words_)};
}

int
BitPlaneSet::reconstruct(int row, int col, int r) const
{
    int v = 0;
    for (int p = 0; p <= r; p++)
        if (bit(row, p, col))
            v += planeWeight(p);
    return v;
}

QueryPlanes::QueryPlanes(std::span<const int8_t> q, int bits)
{
    assign(q, bits);
}

void
QueryPlanes::assign(std::span<const int8_t> q, int bits)
{
    cols_ = static_cast<int>(q.size());
    words_ = (cols_ + 63) / 64;

    if (bits == 0) {
        // Minimal two's-complement width covering the value range:
        // v in [-2^{b-1}, 2^{b-1} - 1].
        int lo = 0;
        int hi = 0;
        for (int8_t v : q) {
            lo = std::min<int>(lo, v);
            hi = std::max<int>(hi, v);
        }
        bits = 1;
        while (lo < -(1 << (bits - 1)) || hi > (1 << (bits - 1)) - 1)
            bits++;
    }
    PADE_CHECK_GE(bits, 1);
    PADE_CHECK_LE(bits, 8);
    bits_ = bits;

    storage_.assign(static_cast<std::size_t>(bits_) * words_, 0);
    // Branch-free: query bits are data, so a per-bit branch would
    // mispredict about half the time, once per (plane, element) of
    // every query row the guarded scan stages.
    for (int col = 0; col < cols_; col++) {
        const unsigned u = static_cast<uint8_t>(q[col]) &
            ((1u << bits_) - 1);
        uint64_t *word = storage_.data() + col / 64;
        for (int t = 0; t < bits_; t++)
            word[static_cast<std::size_t>(t) * words_] |=
                static_cast<uint64_t>((u >> (bits_ - 1 - t)) & 1u)
                << (col % 64);
    }
}

int
QueryPlanes::planeWeight(int t) const
{
    PADE_DCHECK(t >= 0 && t < bits_);
    if (t == 0)
        return -(1 << (bits_ - 1));
    return 1 << (bits_ - 1 - t);
}

bool
QueryPlanes::bit(int t, int col) const
{
    PADE_DCHECK(col >= 0 && col < cols_);
    return (storage_[static_cast<std::size_t>(t) * words_ +
                     col / 64] >> (col % 64)) & 1ULL;
}

int64_t
partialDot(std::span<const int8_t> q, const BitPlaneSet &keys, int row,
           int r)
{
    return partialDot(QueryPlanes(q), keys, row, r);
}

int64_t
partialDot(const QueryPlanes &q, const BitPlaneSet &keys, int row, int r)
{
    PADE_DCHECK(q.numCols() == keys.numCols());
    int64_t total = 0;
    for (int p = 0; p <= r; p++)
        total += static_cast<int64_t>(keys.planeWeight(p)) *
            q.maskedSum(keys.plane(row, p));
    return total;
}

int64_t
partialDotScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
                 int row, int r)
{
    PADE_DCHECK(static_cast<int>(q.size()) == keys.numCols());
    int64_t total = 0;
    for (int p = 0; p <= r; p++) {
        int64_t plane_sum = 0;
        auto words = keys.plane(row, p);
        for (int w = 0; w < keys.wordsPerPlane(); w++) {
            uint64_t bits = words[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                plane_sum += q[w * 64 + b];
                bits &= bits - 1;
            }
        }
        total += static_cast<int64_t>(keys.planeWeight(p)) * plane_sum;
    }
    return total;
}

int64_t
exactDot(std::span<const int8_t> q, const BitPlaneSet &keys, int row)
{
    return partialDot(q, keys, row, keys.numPlanes() - 1);
}

int64_t
exactDot(const QueryPlanes &q, const BitPlaneSet &keys, int row)
{
    return partialDot(q, keys, row, keys.numPlanes() - 1);
}

int64_t
exactDotScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
               int row)
{
    return partialDotScalar(q, keys, row, keys.numPlanes() - 1);
}

} // namespace pade
