/**
 * @file
 * Cross-session prefix index: a radix trie mapping prompt-prefix
 * content to shared, ref-counted KV pages.
 *
 * Thousands of concurrent sessions often share a prompt prefix (the
 * system prompt, few-shot examples, a common document). Without
 * sharing, every session re-packs, re-books, and re-scores that
 * prefix privately — prefill compute and KV bytes both scale with
 * sessions instead of with *distinct* prefixes. This index is the
 * vLLM-style fix at PADE granularity: sessions whose prompts share a
 * prefix map read-only onto the same `KvPage`s (packed key planes +
 * int8 values + the cached WorkPrefix rows), so a hot prefix
 * is packed and scored once for the whole fleet.
 *
 * Keying: the trie is page-granular. A prompt's identity is its
 * *chain hash* sequence, and `chain[d]` names the inputs page d's
 * rows are computed from rather than hashing the rows themselves
 * (ModelWorkload::prefixPageChain): a root over every input a prefix
 * K/V row is a pure function of — model geometry, bit width, page
 * size, the importance and sink knobs, and the prefix stream's seed —
 * mixed with one page index per depth, `chain[d-1]` into `chain[d]`.
 * Equal inputs give equal rows, so equal chains at depth d mean equal
 * K/V bytes in pages 0..d with overwhelming probability, at the cost
 * of one hash per page instead of regenerating every prefix row; and
 * a node's path is fully determined by its own key. The argument
 * holds only while the root names every such input:
 * `PrefixChain.IdentityAgreesWithContent` (tests/test_prefix_index.cc)
 * varies each spec field against a hash of the bytes, and the batcher
 * checks each adopted depth's first V row against the session's own
 * (a PADE_CHECK). Trie node at depth d stores one
 * `shared_ptr<const KvPage>` per stream (layer x kv_head, row-major).
 * Sharing whole pages only is what makes the pages immutable (a full
 * page is never appended to — the KvCache contract); a prefix that
 * ends mid-page diverges by private re-append, the copy-on-write
 * fork point.
 *
 * Why the pages are sound cache values: a page carries everything the
 * decode scan reads of it — key planes, value rows and the WorkPrefix
 * rows computed once at append — so every adopter scores it
 * identically, bit-identical everywhere. The index never mutates a
 * published page, so a node's content (and its planes' revision()) is
 * stable for its lifetime.
 *
 * Ref-counting: `acquire()` marks every matched node as read by one
 * more session; `release()` undoes exactly that (PADE_CHECKed — a
 * refcount underflow means a session double-released and some other
 * session's pages may be evicted under it). Eviction (`max_bytes`
 * budget, LRU leaf-first) only ever removes nodes with zero readers;
 * page *memory* additionally survives until the last adopter's
 * KvCache drops its shared_ptr — eviction unmaps a prefix from
 * future lookups, it never frees bytes under a live reader.
 *
 * Thread safety: internal. One index is shared by every slot of a
 * batcher run (the batcher calls it from its scheduler thread only),
 * and engines driven from several threads may share one too, so all
 * public methods serialize on one annotated pade::Mutex (clang
 * -Wthread-safety proves the discipline; the TSan CI leg watches it
 * race). Lookups are rare (one per admitted session, plus one per
 * prefix wait that ends) and the critical sections are pointer walks
 * — the mutex is nowhere near the per-token hot path.
 */

#ifndef PADE_SERVING_PREFIX_INDEX_H
#define PADE_SERVING_PREFIX_INDEX_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/mutex.h"
#include "serving/kv_cache.h"

namespace pade {

/** Configuration of one prefix index. */
struct PrefixIndexOptions
{
    /**
     * Shared pages per trie node: one per (layer, kv_head) stream,
     * row-major by layer. Every publish/acquire must agree.
     */
    int streams = 1;
    /** Shared-page byte budget; 0 = unbounded. Publishing past the
     *  budget evicts unreferenced LRU leaves (never live readers). */
    std::size_t max_bytes = 0;
};

/** Result of one acquire(): the longest matched prefix. */
struct PrefixMatch
{
    /** Matched depth in pages (0 = miss). */
    int pages = 0;
    /**
     * Matched shared pages, depth-major then stream: entry
     * d * streams + s is page-depth d of stream s. Size
     * pages * streams.
     */
    std::vector<std::shared_ptr<const KvPage>> shared;
};

/** Observability counters (monotonic except bytes/nodes). */
struct PrefixIndexStats
{
    uint64_t lookups = 0;      //!< acquire() calls
    uint64_t hit_pages = 0;    //!< pages matched over all lookups
    uint64_t miss_lookups = 0; //!< acquires matching zero pages
    uint64_t published = 0;    //!< nodes newly registered
    uint64_t rejected = 0;     //!< publishes of already-known nodes
    uint64_t evictions = 0;    //!< nodes removed by the byte budget
    std::size_t bytes = 0;     //!< shared bytes currently indexed
    int nodes = 0;             //!< trie nodes currently resident
};

/**
 * Radix trie of shared prompt-prefix pages. See file comment for the
 * keying, ref-counting, and eviction disciplines.
 */
class PrefixIndex
{
  public:
    explicit PrefixIndex(PrefixIndexOptions opt = {});
    ~PrefixIndex();

    PrefixIndex(const PrefixIndex &) = delete;
    PrefixIndex &operator=(const PrefixIndex &) = delete;

    const PrefixIndexOptions &options() const { return opt_; }

    /**
     * Longest-prefix lookup: match @p chain against the trie and
     * take a reader reference on every matched node. A non-empty
     * match MUST eventually be released with the same chain and the
     * returned depth, or its nodes become unevictable.
     */
    PrefixMatch acquire(std::span<const uint64_t> chain)
        PADE_EXCLUDES(mu_);

    /**
     * Drop the reader references of a prior acquire() that matched
     * @p depth pages of @p chain. Releasing more than was acquired
     * is a PADE_CHECK abort (refcount underflow).
     */
    void release(std::span<const uint64_t> chain, int depth)
        PADE_EXCLUDES(mu_);

    /**
     * Register shared pages for every depth of @p chain:
     * @p pages holds chain.size() * streams entries, depth-major
     * (the layout PrefixMatch::shared uses). Depths already present
     * are skipped — first publisher wins, and concurrent publishers
     * of one prefix converge on the first's pages. Returns the
     * number of newly registered nodes. Publishing may evict
     * unreferenced LRU leaves to honor max_bytes.
     */
    int publish(std::span<const uint64_t> chain,
                std::span<const std::shared_ptr<const KvPage>> pages)
        PADE_EXCLUDES(mu_);

    /** Current counters (copied under the lock). */
    PrefixIndexStats stats() const PADE_EXCLUDES(mu_);

    /** Reader count of the node at depth chain.size() - 1, or -1
     *  when absent (test/observability hook). */
    int readersOf(std::span<const uint64_t> chain) const
        PADE_EXCLUDES(mu_);

  private:
    struct Node
    {
        uint64_t key = 0; //!< chain hash at this depth
        int depth = 0;
        Node *parent = nullptr;
        std::unordered_map<uint64_t, std::unique_ptr<Node>> children;
        std::vector<std::shared_ptr<const KvPage>> pages;
        std::size_t bytes = 0;   //!< sum of kvPageBytes(pages)
        int readers = 0;         //!< live acquire() references
        uint64_t last_use = 0;   //!< logical LRU tick
    };

    /** Walk the matched path of @p chain; nullptr-terminated early
     *  on the first absent child. Returns matched nodes in depth
     *  order. */
    void walk(std::span<const uint64_t> chain,
              std::vector<Node *> &out) const PADE_REQUIRES(mu_);

    /** Evict unreferenced LRU leaves until bytes_ <= max_bytes (or
     *  nothing evictable remains). */
    void evictToBudget() PADE_REQUIRES(mu_);

    PrefixIndexOptions opt_;
    mutable Mutex mu_;
    std::unordered_map<uint64_t, std::unique_ptr<Node>>
        roots_ PADE_GUARDED_BY(mu_);
    uint64_t tick_ PADE_GUARDED_BY(mu_) = 0;
    PrefixIndexStats stats_ PADE_GUARDED_BY(mu_);
};

} // namespace pade

#endif // PADE_SERVING_PREFIX_INDEX_H
