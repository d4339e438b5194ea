#include "attention/online_softmax.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "core/simd/qk_simd.h"

namespace pade {

OnlineSoftmaxRow::OnlineSoftmaxRow(int dim)
    : dim_(dim), m_(-std::numeric_limits<float>::infinity()),
      acc_(dim, 0.0f)
{
}

void
OnlineSoftmaxRow::reset(int dim)
{
    dim_ = dim;
    m_ = -std::numeric_limits<float>::infinity();
    l_ = 0.0f;
    acc_.assign(static_cast<size_t>(dim), 0.0f);
    max_updates_ = 0;
    rescale_ops_ = 0;
}

void
OnlineSoftmaxRow::absorbMax(float tile_max)
{
    const float new_m = std::max(m_, tile_max);
    if (new_m > m_ && l_ > 0.0f) {
        // Rescale the accumulator: one subtraction + exp, then a
        // scalar-vector multiply on O and one on l (paper lines 11-12).
        const float correction = std::exp(m_ - new_m);
        for (float &a : acc_)
            a *= correction;
        l_ *= correction;
        max_updates_++;
        rescale_ops_ += static_cast<uint64_t>(2 * dim_ + 2);
    } else if (new_m > m_) {
        max_updates_ += (m_ !=
            -std::numeric_limits<float>::infinity()) ? 1 : 0;
    }
    m_ = new_m;
}

void
OnlineSoftmaxRow::accumulate(float score, std::span<const float> vrow)
{
    assert(static_cast<int>(vrow.size()) == dim_);
    const float p = std::exp(score - m_);
    l_ += p;
    for (int d = 0; d < dim_; d++)
        acc_[d] += p * vrow[d];
}

void
OnlineSoftmaxRow::update(std::span<const float> scores,
                         const std::vector<std::span<const float>> &values)
{
    assert(scores.size() == values.size());
    if (scores.empty())
        return;

    float tile_max = scores[0];
    for (float s : scores)
        tile_max = std::max(tile_max, s);
    absorbMax(tile_max);

    for (size_t t = 0; t < scores.size(); t++)
        accumulate(scores[t], values[t]);
}

void
OnlineSoftmaxRow::update(std::span<const float> scores,
                         const MatrixF &values, std::span<const int> ids)
{
    assert(scores.size() == ids.size());
    if (scores.empty())
        return;

    float tile_max = scores[0];
    for (float s : scores)
        tile_max = std::max(tile_max, s);
    absorbMax(tile_max);

    for (size_t t = 0; t < scores.size(); t++)
        accumulate(scores[t], values.row(ids[t]));
}

void
OnlineSoftmaxRow::update(std::span<const float> scores,
                         const MatrixF &values, int first_row)
{
    if (scores.empty())
        return;

    float tile_max = scores[0];
    for (float s : scores)
        tile_max = std::max(tile_max, s);
    absorbMax(tile_max);

    for (size_t t = 0; t < scores.size(); t++)
        accumulate(scores[t],
                   values.row(first_row + static_cast<int>(t)));
}

void
OnlineSoftmaxRow::update(std::span<const float> scores,
                         std::span<const std::span<const int8_t>> values,
                         float scale)
{
    assert(scores.size() == values.size());
    if (scores.empty())
        return;

    float tile_max = scores[0];
    for (float s : scores)
        tile_max = std::max(tile_max, s);
    absorbMax(tile_max);

    const simd::ValueRowKernel row = simd::valueRowKernel();
    for (size_t t = 0; t < scores.size(); t++) {
        assert(static_cast<int>(values[t].size()) == dim_);
        const float p = std::exp(scores[t] - m_);
        l_ += p;
        row(acc_.data(), values[t].data(), dim_, p, scale);
    }
}

std::vector<float>
OnlineSoftmaxRow::finalize() const
{
    std::vector<float> out(acc_);
    if (l_ > 0.0f)
        for (float &v : out)
            v /= l_;
    return out;
}

void
OnlineSoftmaxRow::finalizeInto(std::span<float> out) const
{
    assert(static_cast<int>(out.size()) == dim_);
    if (l_ > 0.0f) {
        for (int d = 0; d < dim_; d++)
            out[d] = acc_[d] / l_;
    } else {
        for (int d = 0; d < dim_; d++)
            out[d] = acc_[d];
    }
}

MatrixF
flashAttention(const MatrixF &q, const MatrixF &k, const MatrixF &v,
               float scale, int tile_size)
{
    assert(tile_size > 0 && k.rows() == v.rows());
    MatrixF out(q.rows(), v.cols());

    OnlineSoftmaxRow acc(v.cols());
    std::vector<float> scores(static_cast<size_t>(tile_size));
    for (int i = 0; i < q.rows(); i++) {
        acc.reset(v.cols());
        auto qrow = q.row(i);
        for (int base = 0; base < k.rows(); base += tile_size) {
            const int hi = std::min(k.rows(), base + tile_size);
            for (int j = base; j < hi; j++) {
                float s = 0.0f;
                auto krow = k.row(j);
                for (int d = 0; d < k.cols(); d++)
                    s += qrow[d] * krow[d];
                scores[static_cast<size_t>(j - base)] = s * scale;
            }
            acc.update(std::span<const float>(scores)
                           .first(static_cast<size_t>(hi - base)),
                       v, base);
        }
        acc.finalizeInto(out.row(i));
    }
    return out;
}

std::vector<int>
headTailOrder(int num_tiles)
{
    std::vector<int> order;
    order.reserve(num_tiles);
    int head = 0;
    int tail = num_tiles - 1;
    bool take_head = true;
    while (head <= tail) {
        if (take_head)
            order.push_back(head++);
        else
            order.push_back(tail--);
        take_head = !take_head;
    }
    return order;
}

} // namespace pade
