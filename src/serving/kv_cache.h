/**
 * @file
 * Append-only bit-plane KV cache for incremental decoding, with
 * ref-counted page sharing and optional-page middle reclamation.
 *
 * Autoregressive serving appends exactly one (key, value) row per
 * decode step, but the seed code re-quantized and re-packed the entire
 * KV history each step. This cache keeps the history resident across
 * steps in fixed-capacity *pages*:
 *
 *  - keys live as `BitPlaneSet` pages grown with
 *    `BitPlaneSet::appendToken()`, so packing a new token costs
 *    O(bits * head_dim) regardless of the history length and is
 *    bit-identical to a from-scratch pack of the same rows; a token's
 *    planes take bits * ceil(head_dim / 64) words, unpadded, right
 *    after the previous token's;
 *  - values live as the int8 rows they were appended as; the value
 *    stage applies `v_scale` per element, which gives the exact
 *    `scale * int8` floats `dequantize()` would;
 *  - the query-independent per-(token, plane) work accounting — the
 *    `WorkPrefix` running sums of `PlaneWork`'s selected-element
 *    counts, 4 bytes per plane — is computed once at append time
 *    instead of once per decode step, amortizing what
 *    `padeAttention` rebuilds per call.
 *
 * Pages are fixed at `page_tokens` rows and reserved up front, so an
 * append never moves previously stored planes: spans handed out by
 * the accessors stay valid across appendToken() calls. At head_dim 64
 * and 8 bits a page token costs 160 B: 64 B of key planes, 64 B of
 * int8 V row and 32 B of WorkPrefix rows (kvPageBytes()).
 *
 * Page sharing (cross-session prefix caching): pages are held through
 * `std::shared_ptr<KvPage>`, so a FULL page can be mapped read-only
 * into several caches at once — `sharePage()` hands out a reference,
 * `adoptSharedPage()` splices one in at the append frontier. Full
 * pages are immutable by construction (appendToken only ever writes
 * the partial tail page, and a full page can never become the tail
 * again), which is what makes the aliasing safe: no copy-on-write
 * machinery is needed because a shared page is never written. A
 * prompt prefix that ends mid-page diverges by *copying*: the adopter
 * re-appends the partial page's tokens privately — that private tail
 * is the copy-on-write fork point. Shared pages carry their cached
 * WorkPrefix table with them, so the scoring-side work of a hot prefix
 * is computed once for every reader. The last owner (cache or
 * PrefixIndex entry) to let go frees the page — refcounts are the
 * shared_ptr's, so a page can never be freed under a live reader.
 *
 * Page liveness (middle reclamation): the deque stores *optional*
 * slots — a null slot is a page reclaimed from the middle of the
 * stream. `dropPagesBefore()` frees whole pages from the front (the
 * sliding-window primitive); `dropPagesIn()` frees fully-dead pages
 * anywhere behind the append frontier, which is what lets
 * StreamingLLM sink-pinned streams return the dead middle between the
 * pinned sinks and the recency window (previously those pages stayed
 * resident forever). Token indices are stable across both: eviction
 * frees storage but never renumbers. `pageLive()` is the scan-side
 * query; handing out a span from a dead slot is a PADE_CHECK abort in
 * every build type.
 *
 * Thread safety: external. One cache belongs to one KV-head stream:
 * appendToken()/dropPagesBefore()/dropPagesIn()/adoptSharedPage()
 * mutate and must be serialized by the owner, while the const
 * accessors are safe to share across concurrent readers *between*
 * mutations — the GQA decode path leans on exactly that (every query
 * head of a group scans the one shared cache; LayerEngine serializes
 * appends against decode rounds). Readers of a *shared* page in other
 * caches are likewise safe: the page is full, hence never mutated.
 * There is deliberately no internal mutex: a lock per page access
 * would sit on the per-token hot path.
 *
 * Invariant checking: page liveness, append shapes and key values
 * outside the bit width's range are PADE_CHECKs (armed in Release —
 * a span handed out for a dropped page means reading freed memory,
 * and an out-of-range key would be scored as another value);
 * per-token index arithmetic inside the hot scan is PADE_DCHECK
 * (test builds compile with -UNDEBUG).
 */

#ifndef PADE_SERVING_KV_CACHE_H
#define PADE_SERVING_KV_CACHE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/bit_serial.h"
#include "quant/bitplane.h"
#include "tensor/matrix.h"

namespace pade {

/** Geometry and quantization parameters fixed at cache creation. */
struct KvCacheConfig
{
    /** Key/value row width; bits * head_dim must not exceed
     *  kMaxWorkPrefixElems (65535), so head_dim <= 8191 at 8 bits. */
    int head_dim = 128;
    int bits = 8;          //!< key bit-plane width (2..8)
    int page_tokens = 256; //!< tokens per page (fixed capacity)
    /**
     * GSAT sub-group geometry baked into the cached WorkPrefix
     * entries; must match the PadeConfig the decode engine runs with
     * (asserted there).
     */
    int subgroup = 8;
    int muxes = 4;
    /** Value dequantization scale: float row = v_scale * int8 row,
     *  applied by the value stage. */
    float v_scale = 1.0f;
};

/**
 * One fixed-capacity KV page: packed key planes, int8 value rows, and
 * the per-(row, plane) WorkPrefix table. Pages record the
 * geometry they were built with so adoption into another cache can
 * verify compatibility — sharing a page whose quantization scale or
 * GSAT geometry differs would be a silent numerical divergence, so
 * `adoptSharedPage` PADE_CHECKs every field.
 */
struct KvPage
{
    explicit KvPage(const KvCacheConfig &cfg);

    KvCacheConfig cfg;           //!< geometry fingerprint at creation
    BitPlaneSet planes;          //!< keys, page-local rows
    MatrixI8 values;             //!< int8 V rows (scale: cfg.v_scale)
    std::vector<WorkPrefix> work; //!< used * bits entries

    /** Rows appended so far; full() pages are immutable. */
    int used() const { return planes.numRows(); }
    bool full() const { return used() == cfg.page_tokens; }
};

/**
 * Resident bytes of one page (planes + values + work table). Pages
 * allocate/reserve their full fixed capacity up front, so this is a
 * per-geometry constant, independent of used().
 */
std::size_t kvPageBytes(const KvPage &page);

/**
 * Append-only paged KV store for one attention head's decode stream.
 */
class KvCache
{
  public:
    explicit KvCache(const KvCacheConfig &cfg);

    const KvCacheConfig &config() const { return cfg_; }

    /** Tokens appended so far (evicted tokens still count). */
    int size() const { return tokens_; }
    /** Logical pages ever opened (dropped pages included). */
    int
    numPages() const
    {
        return first_live_page_ + static_cast<int>(pages_.size());
    }
    /** Pages still resident (dropped and reclaimed slots excluded). */
    int livePages() const;

    /**
     * First token whose page slot still exists (reclaimed middle
     * slots may sit above it — pageLive() is the per-page truth).
     * Token indices are stable across eviction — dropPagesBefore()
     * frees storage but never renumbers — so consumers skip tokens
     * below this bound instead of re-indexing.
     */
    int firstLiveToken() const
    {
        return first_live_page_ * cfg_.page_tokens;
    }

    /**
     * Free every page whose tokens all precede @p token (whole pages
     * only; the page containing @p token survives). Spans handed out
     * for surviving pages stay valid; accessors for dropped tokens
     * assert. This is the eviction primitive behind sliding-window /
     * StreamingLLM retention (see RetentionPolicy in decode_engine.h).
     */
    void dropPagesBefore(int token);

    /**
     * Free every page lying wholly inside [@p first_token,
     * @p last_token) — the middle-reclamation primitive. The slot
     * stays in the deque (null) so later pages keep their indices;
     * the append-frontier tail page always survives. Composes with
     * sink-pinned retention: pages between the pinned sinks and the
     * recency window become reclaimable instead of resident-forever.
     */
    void dropPagesIn(int first_token, int last_token);

    /** True when @p page has not been dropped or reclaimed. */
    bool
    pageLive(int page) const
    {
        if (page < first_live_page_ || page >= numPages())
            return false;
        return pages_[static_cast<std::size_t>(
                   page - first_live_page_)] != nullptr;
    }

    /** Page holding token @p token. */
    int
    pageOf(int token) const
    {
        PADE_DCHECK(token >= 0 && token < tokens_);
        return token / cfg_.page_tokens;
    }
    /** Row of token @p token inside its page. */
    int
    rowOf(int token) const
    {
        PADE_DCHECK(token >= 0 && token < tokens_);
        return token % cfg_.page_tokens;
    }

    /**
     * Append one token: pack the key row's bit planes into the tail
     * page (opening a new page when full), copy the value row, and
     * precompute its WorkPrefix row. O(bits * head_dim).
     */
    void appendToken(std::span<const int8_t> k_row,
                     std::span<const int8_t> v_row);

    /**
     * Splice a FULL shared page in at the append frontier (prefix
     * adoption). Only legal at a page boundary — the cache must hold
     * no partial tail — and only for a page whose geometry and
     * quantization scale match this cache exactly (PADE_CHECKed; a
     * mismatched adoption would silently corrupt decode outputs).
     * The page is aliased, not copied: readers of this cache and of
     * every other adopter observe the producer's packed planes,
     * value rows, and cached WorkPrefix rows.
     */
    void adoptSharedPage(std::shared_ptr<const KvPage> page);

    /**
     * Hand out a reference to FULL page @p page for sharing (prefix
     * publication). Full pages are immutable, so the alias is safe
     * for the page's lifetime; the shared_ptr keeps it alive past
     * this cache's own eviction.
     */
    std::shared_ptr<const KvPage> sharePage(int page) const;

    /** Packed key planes of page @p page (page-local row indices). */
    const BitPlaneSet &
    pagePlanes(int page) const
    {
        return livePage(page).planes;
    }

    /** Int8 value row of global token @p token (float row:
     *  config().v_scale times it). */
    std::span<const int8_t>
    valueRow(int token) const
    {
        return livePage(pageOf(token)).values.row(rowOf(token));
    }

    /** Cached WorkPrefix of (token, plane): sums over planes 0..plane. */
    const WorkPrefix &
    work(int token, int plane) const
    {
        PADE_DCHECK(plane >= 0 && plane < cfg_.bits);
        const KvPage &p = livePage(pageOf(token));
        return p.work[static_cast<std::size_t>(rowOf(token)) *
                          cfg_.bits +
                      plane];
    }

    /**
     * All cached WorkPrefix rows of page @p page: row r's planes start
     * at offset r * bits. The decode scan fetches this once per page
     * (alongside pagePlanes) and reads one entry per (key, row).
     */
    std::span<const WorkPrefix>
    pageWork(int page) const
    {
        return livePage(page).work;
    }

    /**
     * Resident bytes across live pages (planes + values + work
     * table). Pages allocate their full fixed capacity up front, so
     * this steps by kvPageBytes() per live page. Shared pages are
     * counted by every cache referencing them — system-wide savings
     * from sharing are reported by the prefix-cache layer, which
     * knows the adoption count.
     */
    std::size_t bytesUsed() const;

  private:
    /**
     * Page @p page, which must not have been dropped or reclaimed.
     * Liveness is a PADE_CHECK, armed in every build type: serving a
     * span from a dead page is a read of freed memory, and
     * retention-policy bugs must abort a Release server at the
     * boundary rather than corrupt its outputs.
     */
    const KvPage &
    livePage(int page) const
    {
        PADE_CHECK_GE(page, first_live_page_);
        PADE_CHECK_LT(page, numPages());
        const auto &slot = pages_[static_cast<std::size_t>(
            page - first_live_page_)];
        PADE_CHECK(slot != nullptr);
        return *slot;
    }

    KvCacheConfig cfg_;
    /**
     * Resident page slots, front-dropped by dropPagesBefore and
     * middle-nulled by dropPagesIn: deque slot i holds logical page
     * first_live_page_ + i, or nullptr when that page was reclaimed.
     * Deque: slot addresses are stable across appends, and pop_front
     * leaves the survivors' addresses untouched. shared_ptr: pages
     * adopted by other caches (or pinned by the PrefixIndex) survive
     * this cache's eviction.
     */
    std::deque<std::shared_ptr<const KvPage>> pages_;
    /** The append frontier; null iff pages_ is empty. Owned mutably
     *  by this cache alone — it aliases pages_.back() until that
     *  page fills, and a full page is never written again. */
    std::shared_ptr<KvPage> tail_;
    int first_live_page_ = 0;
    int tokens_ = 0;
};

} // namespace pade

#endif // PADE_SERVING_KV_CACHE_H
