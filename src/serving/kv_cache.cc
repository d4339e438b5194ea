#include "serving/kv_cache.h"

#include <algorithm>

#include "obs/telemetry.h"

namespace pade {

namespace {

// Byte-flow telemetry (docs/OBSERVABILITY.md): where KV memory goes —
// appended privately, aliased from the prefix index, or reclaimed by
// eviction. Page-granular by design: bytes move at page granularity
// (a page's storage is committed when the page opens).
struct KvMetrics
{
    obs::Counter &tokens_appended;
    obs::Counter &pages_opened;
    obs::Counter &bytes_appended;
    obs::Counter &pages_adopted;
    obs::Counter &bytes_shared;
    obs::Counter &pages_reclaimed;
    obs::Counter &bytes_reclaimed;

    static KvMetrics &
    get()
    {
        static KvMetrics m{
            obs::Registry::instance().counter("kv.tokens_appended"),
            obs::Registry::instance().counter("kv.pages_opened"),
            obs::Registry::instance().counter("kv.bytes_appended"),
            obs::Registry::instance().counter("kv.pages_adopted"),
            obs::Registry::instance().counter("kv.bytes_shared"),
            obs::Registry::instance().counter("kv.pages_reclaimed"),
            obs::Registry::instance().counter("kv.bytes_reclaimed"),
        };
        return m;
    }
};

} // namespace

KvPage::KvPage(const KvCacheConfig &config)
    : cfg(config), planes(config.head_dim, config.bits,
                          config.page_tokens),
      values(config.page_tokens, config.head_dim)
{
    work.reserve(static_cast<std::size_t>(config.page_tokens) *
                 config.bits);
}

std::size_t
kvPageBytes(const KvPage &page)
{
    return static_cast<std::size_t>(page.cfg.page_tokens) *
        (static_cast<std::size_t>(page.planes.numPlanes()) *
             page.planes.wordsPerPlane() * sizeof(uint64_t) +
         static_cast<std::size_t>(page.cfg.head_dim) * sizeof(int8_t) +
         static_cast<std::size_t>(page.cfg.bits) * sizeof(WorkPrefix));
}

KvCache::KvCache(const KvCacheConfig &cfg) : cfg_(cfg)
{
    PADE_CHECK_GT(cfg_.head_dim, 0);
    PADE_CHECK_GT(cfg_.page_tokens, 0);
    PADE_CHECK_GE(cfg_.bits, 2);
    PADE_CHECK_LE(cfg_.bits, 8);
    // appendToken's planeWork geometry (see padeAttention), and the
    // 16-bit WorkPrefix running sums must not wrap.
    PADE_CHECK_GE(cfg_.subgroup, 1);
    PADE_CHECK_LE(cfg_.subgroup, 64);
    PADE_CHECK_GE(cfg_.muxes, 1);
    PADE_CHECK_LE(cfg_.head_dim * cfg_.bits, kMaxWorkPrefixElems);
}

void
KvCache::appendToken(std::span<const int8_t> k_row,
                     std::span<const int8_t> v_row)
{
    PADE_CHECK_EQ(static_cast<int>(k_row.size()), cfg_.head_dim);
    PADE_CHECK_EQ(static_cast<int>(v_row.size()), cfg_.head_dim);

    // The mutable tail is the only writable page. It goes away when
    // it fills (full pages are immutable — the sharing contract), when
    // a shared page was adopted, or when eviction popped it.
    if (!tail_ || tail_->full()) {
        tail_ = std::make_shared<KvPage>(cfg_);
        pages_.push_back(tail_);
        KvMetrics::get().pages_opened.add(1);
        KvMetrics::get().bytes_appended.add(kvPageBytes(*tail_));
    }
    KvMetrics::get().tokens_appended.add(1);
    KvPage &page = *tail_;

    const int row = page.used();
    page.planes.appendToken(k_row);

    // Stored as appended: the value stage multiplies by v_scale as
    // padeAttention's does, so both see dequantize()'s floats.
    std::copy(v_row.begin(), v_row.end(), page.values.row(row).begin());

    // The work sums are query-independent: computing them here
    // amortizes the per-call table rebuild padeAttention pays, once
    // per token. work holds page_tokens * bits reserved entries, so
    // growing it never moves a row a reader holds.
    page.work.resize(page.work.size() + static_cast<std::size_t>(cfg_.bits));
    workPrefixRow(page.planes, row, cfg_.subgroup, cfg_.muxes,
                  page.work.data() + static_cast<std::size_t>(row) *
                      cfg_.bits);
    tokens_++;
}

void
KvCache::adoptSharedPage(std::shared_ptr<const KvPage> page)
{
    PADE_CHECK(page != nullptr);
    // Adoption is only legal at a page boundary (no partial private
    // tail to splice around) and for a bit-compatible page: the
    // packed planes, the value rows' scale and the WorkPrefix entries
    // all come from the producer's config, so every field must match
    // for the alias to be numerically transparent.
    PADE_CHECK_EQ(tokens_ % cfg_.page_tokens, 0);
    PADE_CHECK(page->full());
    PADE_CHECK_EQ(page->cfg.head_dim, cfg_.head_dim);
    PADE_CHECK_EQ(page->cfg.bits, cfg_.bits);
    PADE_CHECK_EQ(page->cfg.page_tokens, cfg_.page_tokens);
    PADE_CHECK_EQ(page->cfg.subgroup, cfg_.subgroup);
    PADE_CHECK_EQ(page->cfg.muxes, cfg_.muxes);
    PADE_CHECK(page->cfg.v_scale == cfg_.v_scale);

    KvMetrics::get().pages_adopted.add(1);
    KvMetrics::get().bytes_shared.add(kvPageBytes(*page));
    pages_.push_back(std::move(page));
    tail_.reset(); // the back page is shared: never writable
    tokens_ += cfg_.page_tokens;
}

std::shared_ptr<const KvPage>
KvCache::sharePage(int page) const
{
    PADE_CHECK_GE(page, first_live_page_);
    PADE_CHECK_LT(page, numPages());
    const auto &slot =
        pages_[static_cast<std::size_t>(page - first_live_page_)];
    PADE_CHECK(slot != nullptr);
    // Only full pages are immutable; sharing the mutable tail would
    // let a later append mutate another cache's (or the index's) view.
    PADE_CHECK(slot->full());
    return slot;
}

void
KvCache::dropPagesBefore(int token)
{
    PADE_CHECK_GE(token, 0);
    // Whole pages only: the page containing `token` (and any partial
    // tail) always survives. token / page_tokens is the first page
    // with a row >= token, so everything strictly below it is dead.
    const int target = std::min(token, tokens_) / cfg_.page_tokens;
    while (first_live_page_ < target && !pages_.empty()) {
        if (pages_.front().get() == tail_.get())
            tail_.reset(); // evicting the append frontier itself
        if (pages_.front()) {
            KvMetrics::get().pages_reclaimed.add(1);
            KvMetrics::get().bytes_reclaimed.add(
                kvPageBytes(*pages_.front()));
        }
        pages_.pop_front();
        first_live_page_++;
    }
}

void
KvCache::dropPagesIn(int first_token, int last_token)
{
    PADE_CHECK_GE(first_token, 0);
    PADE_CHECK_GE(last_token, first_token);
    // A page dies only when EVERY one of its tokens lies inside
    // [first_token, last_token). The final slot — the append frontier
    // — always survives so appendToken never resurrects a reclaimed
    // slot; front pages are dropPagesBefore's territory but are
    // accepted here too (the slot nulls in place, indices hold).
    const int last = std::min(last_token, tokens_);
    const int first_page =
        (first_token + cfg_.page_tokens - 1) / cfg_.page_tokens;
    const int end_page = last / cfg_.page_tokens; // exclusive
    const int lo = std::max(first_page, first_live_page_);
    const int hi = std::min(end_page, numPages() - 1);
    for (int p = lo; p < hi; p++) {
        auto &slot =
            pages_[static_cast<std::size_t>(p - first_live_page_)];
        if (slot) {
            KvMetrics::get().pages_reclaimed.add(1);
            KvMetrics::get().bytes_reclaimed.add(kvPageBytes(*slot));
        }
        slot.reset();
    }
}

int
KvCache::livePages() const
{
    int live = 0;
    for (const auto &slot : pages_)
        live += slot != nullptr;
    return live;
}

std::size_t
KvCache::bytesUsed() const
{
    std::size_t bytes = 0;
    for (const auto &slot : pages_)
        if (slot)
            bytes += kvPageBytes(*slot);
    return bytes;
}

} // namespace pade
