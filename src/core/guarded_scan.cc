#include "core/guarded_scan.h"

namespace pade {

PruneStats &
PruneStats::operator+=(const PruneStats &o)
{
    planes_processed += o.planes_processed;
    planes_total += o.planes_total;
    keys_retained += o.keys_retained;
    keys_total += o.keys_total;
    ops_bs += o.ops_bs;
    ops_naive += o.ops_naive;
    max_updates += o.max_updates;
    rescale_ops += o.rescale_ops;
    threshold_updates += o.threshold_updates;
    return *this;
}

ScanPlan::ScanPlan(QkKernel kernel, int key_bits, bool guard_enabled)
    : bits(key_bits), prune(guard_enabled),
      tile_kernel(kernel == QkKernel::kSimd ? simd::tileKernel()
                                            : nullptr)
{
}

void
ScanQuery::start(std::span<const int8_t> row, QkKernel kernel, int bits,
                 const GuardFilter &g, uint8_t *planes_row,
                 uint8_t *keep_row)
{
    q = row;
    if (kernel == QkKernel::kPopcount)
        qplanes.assign(row);
    if (kernel == QkKernel::kSimd) {
        bytes.assign(row.begin(), row.end());
        bytes.resize((row.size() + 31) / 32 * 32, 0);
    }
    bui = computeBuiTable(row, bits);
    guard = g;
    planes_out = planes_row;
    keep_out = keep_row;
    retained.clear();
    scores.clear();
}

void
ScanGroup::bind(std::span<ScanQuery> scan_rows, int max_keys)
{
    rows = scan_rows;
    tile_rows.clear();
    for (ScanQuery &sq : rows)
        tile_rows.push_back(sq.tileRow());
    out.resize(static_cast<std::size_t>(max_keys) * rows.size());
}

} // namespace pade
