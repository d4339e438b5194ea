/**
 * @file
 * Property tests of the cross-session prefix index (radix trie of
 * shared, ref-counted KV pages): longest-match lookup, first-publisher
 * idempotence, reader refcount discipline (underflow aborts), and the
 * LRU-leaf eviction rule that a shared node may only disappear once
 * its last reader detached — while the page *memory* additionally
 * survives any index eviction as long as a cache references it.
 * PrefixChain checks the index's key, ModelWorkload::prefixPageChain,
 * against a hash of the K/V bytes it stands for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serving/kv_cache.h"
#include "serving/prefix_index.h"
#include "workload/generator.h"

namespace pade {
namespace {

KvCacheConfig
pageConfig()
{
    KvCacheConfig cfg;
    cfg.head_dim = 8;
    cfg.bits = 4;
    cfg.page_tokens = 4;
    cfg.v_scale = 0.5f;
    return cfg;
}

/** Build one FULL page with deterministic rows derived from @p tag. */
std::shared_ptr<const KvPage>
makePage(uint8_t tag)
{
    const KvCacheConfig cfg = pageConfig();
    KvCache cache(cfg);
    std::vector<int8_t> k(static_cast<std::size_t>(cfg.head_dim));
    std::vector<int8_t> v(static_cast<std::size_t>(cfg.head_dim));
    for (int t = 0; t < cfg.page_tokens; t++) {
        for (int d = 0; d < cfg.head_dim; d++) {
            k[static_cast<std::size_t>(d)] =
                static_cast<int8_t>((tag + t + d) % 7 - 3);
            v[static_cast<std::size_t>(d)] =
                static_cast<int8_t>((tag * 3 + t - d) % 9 - 4);
        }
        cache.appendToken(k, v);
    }
    return cache.sharePage(0);
}

std::vector<std::shared_ptr<const KvPage>>
makePages(uint8_t tag, int count)
{
    std::vector<std::shared_ptr<const KvPage>> pages;
    for (int i = 0; i < count; i++)
        pages.push_back(makePage(static_cast<uint8_t>(tag + i)));
    return pages;
}

TEST(PrefixIndex, EmptyIndexMissesAndCounts)
{
    PrefixIndex index;
    const std::vector<uint64_t> chain{1, 2, 3};
    const PrefixMatch match = index.acquire(chain);
    EXPECT_EQ(match.pages, 0);
    EXPECT_TRUE(match.shared.empty());
    EXPECT_EQ(index.readersOf(chain), -1);

    const PrefixIndexStats st = index.stats();
    EXPECT_EQ(st.lookups, 1u);
    EXPECT_EQ(st.miss_lookups, 1u);
    EXPECT_EQ(st.hit_pages, 0u);
    EXPECT_EQ(st.nodes, 0);
}

TEST(PrefixIndex, LongestMatchStopsAtDivergence)
{
    PrefixIndex index;
    const std::vector<uint64_t> chain{10, 20, 30};
    const auto pages = makePages(1, 3);
    EXPECT_EQ(index.publish(chain, pages), 3);

    // Full-chain hit returns the exact published references.
    PrefixMatch full = index.acquire(chain);
    ASSERT_EQ(full.pages, 3);
    ASSERT_EQ(full.shared.size(), 3u);
    for (int d = 0; d < 3; d++)
        EXPECT_EQ(full.shared[static_cast<std::size_t>(d)].get(),
                  pages[static_cast<std::size_t>(d)].get());

    // A chain diverging at depth 2 matches exactly its shared prefix.
    const std::vector<uint64_t> diverged{10, 20, 99};
    PrefixMatch part = index.acquire(diverged);
    EXPECT_EQ(part.pages, 2);
    EXPECT_EQ(part.shared.size(), 2u);

    // And one diverging at the root matches nothing.
    const std::vector<uint64_t> other{77, 20, 30};
    EXPECT_EQ(index.acquire(other).pages, 0);

    const PrefixIndexStats st = index.stats();
    EXPECT_EQ(st.lookups, 3u);
    EXPECT_EQ(st.hit_pages, 5u);
    EXPECT_EQ(st.miss_lookups, 1u);
    EXPECT_EQ(st.nodes, 3);
    EXPECT_EQ(st.bytes, 3 * kvPageBytes(*pages[0]));
}

TEST(PrefixIndex, FirstPublisherWins)
{
    PrefixIndex index;
    const std::vector<uint64_t> chain{5, 6};
    const auto first = makePages(10, 2);
    const auto second = makePages(40, 2);
    EXPECT_EQ(index.publish(chain, first), 2);
    EXPECT_EQ(index.publish(chain, second), 0);
    EXPECT_EQ(index.stats().rejected, 2u);

    // Lookups converge on the first publisher's pages.
    const PrefixMatch match = index.acquire(chain);
    ASSERT_EQ(match.pages, 2);
    EXPECT_EQ(match.shared[0].get(), first[0].get());
    EXPECT_EQ(match.shared[1].get(), first[1].get());

    // A longer chain extending a published prefix registers only the
    // new depths.
    const std::vector<uint64_t> longer{5, 6, 7};
    EXPECT_EQ(index.publish(longer, makePages(60, 3)), 1);
    EXPECT_EQ(index.stats().nodes, 3);
}

TEST(PrefixIndex, ReaderCountsFollowAcquireAndRelease)
{
    PrefixIndex index;
    const std::vector<uint64_t> chain{3, 4};
    index.publish(chain, makePages(2, 2));
    EXPECT_EQ(index.readersOf(chain), 0);

    (void)index.acquire(chain);
    (void)index.acquire(chain);
    EXPECT_EQ(index.readersOf(chain), 2);
    // A shorter acquire only references the nodes it matched.
    const std::vector<uint64_t> head{3};
    (void)index.acquire(head);
    EXPECT_EQ(index.readersOf(head), 3);
    EXPECT_EQ(index.readersOf(chain), 2);

    index.release(chain, 2);
    index.release(chain, 2);
    index.release(head, 1);
    EXPECT_EQ(index.readersOf(head), 0);
    EXPECT_EQ(index.readersOf(chain), 0);
    // Releasing a zero-depth (miss) acquire is a no-op.
    index.release(chain, 0);
}

TEST(PrefixIndexDeathTest, OverReleaseAborts)
{
    PrefixIndex index;
    const std::vector<uint64_t> chain{8};
    index.publish(chain, makePages(7, 1));
    (void)index.acquire(chain);
    index.release(chain, 1);
    // The refcount is now zero: a second release is an underflow and
    // must abort (another session's pages could be evicted under it).
    EXPECT_DEATH(index.release(chain, 1), "PADE_CHECK");
}

TEST(PrefixIndex, EvictionSparesLiveReadersThenReclaimsLru)
{
    const std::size_t page_bytes = kvPageBytes(*makePage(0));
    PrefixIndexOptions opt;
    opt.max_bytes = 2 * page_bytes; // room for two single-page chains
    PrefixIndex index(opt);

    const std::vector<uint64_t> a{100};
    const std::vector<uint64_t> b{200};
    const std::vector<uint64_t> c{300};
    index.publish(a, makePages(1, 1));
    const PrefixMatch held = index.acquire(a); // pin A

    index.publish(b, makePages(2, 1));
    EXPECT_EQ(index.stats().evictions, 0u);

    // C pushes past the budget: B (LRU, unreferenced leaf) goes, A is
    // protected by its live reader even though it is least recent.
    index.publish(c, makePages(3, 1));
    EXPECT_EQ(index.stats().evictions, 1u);
    EXPECT_EQ(index.readersOf(a), 1);
    EXPECT_EQ(index.readersOf(b), -1);
    EXPECT_EQ(index.readersOf(c), 0);

    // Once A's last reader detaches it becomes the LRU victim of the
    // next over-budget publish.
    index.release(a, 1);
    const std::vector<uint64_t> d{400};
    index.publish(d, makePages(4, 1));
    EXPECT_EQ(index.readersOf(a), -1);
    EXPECT_EQ(index.readersOf(c), 0);
    EXPECT_EQ(index.readersOf(d), 0);
    EXPECT_EQ(index.stats().evictions, 2u);
    EXPECT_LE(index.stats().bytes, opt.max_bytes);

    // Eviction unmapped A from lookups, but the held reference keeps
    // the page memory itself alive and readable.
    ASSERT_EQ(held.shared.size(), 1u);
    EXPECT_TRUE(held.shared[0]->full());
    EXPECT_EQ(held.shared[0]->values.rows(),
              pageConfig().page_tokens);
}

TEST(PrefixIndex, EvictionNeverOrphansDeeperMatches)
{
    const std::size_t page_bytes = kvPageBytes(*makePage(0));
    PrefixIndexOptions opt;
    opt.max_bytes = 2 * page_bytes;
    PrefixIndex index(opt);

    // A two-deep chain over budget by one page: only the *leaf* may
    // go — evicting the root under the leaf would leave acquire()
    // able to reach depth 2 without depth 1.
    const std::vector<uint64_t> chain{1, 2, 3};
    index.publish(chain, makePages(9, 3));
    EXPECT_EQ(index.stats().evictions, 1u);
    EXPECT_EQ(index.acquire(chain).pages, 2);
    const PrefixIndexStats st = index.stats();
    EXPECT_EQ(st.nodes, 2);
    EXPECT_LE(st.bytes, opt.max_bytes);
}

/**
 * The oracle of prefixPageChain(): entry d hashes the K and V bytes of
 * prefix page d, every layer and KV head, mixed with entry d-1, from a
 * root over the page geometry. It generates every prefix row, which is
 * what the identity chain avoids.
 */
std::vector<uint64_t>
contentPageChain(const ModelWorkload &work, int page_tokens)
{
    const ModelSpec &spec = work.spec();
    uint64_t h = 0;
    const auto mix = [&h](uint64_t word) {
        uint64_t state = h + word;
        h = splitMix64(state);
    };
    for (const int g : {spec.layers, spec.kv_heads, spec.head_dim,
                        spec.bits, page_tokens})
        mix(static_cast<uint64_t>(g));
    MatrixI8 k(spec.kv_heads, spec.head_dim);
    MatrixI8 v(spec.kv_heads, spec.head_dim);
    std::vector<uint64_t> chain;
    for (int p = 0; p < spec.prefix_len / page_tokens; p++) {
        for (int pos = p * page_tokens; pos < (p + 1) * page_tokens;
             pos++) {
            for (int l = 0; l < spec.layers; l++) {
                work.stageKv(l, pos, k, v);
                for (int kv = 0; kv < spec.kv_heads; kv++) {
                    for (const int8_t b : k.row(kv))
                        mix(static_cast<uint8_t>(b));
                    for (const int8_t b : v.row(kv))
                        mix(static_cast<uint8_t>(b));
                }
            }
        }
        chain.push_back(h);
    }
    return chain;
}

/** Page size of the PrefixChain cases. */
constexpr int kPage = 8;

TEST(PrefixChain, IdentityAgreesWithContent)
{
    // One field of a base spec varied at a time. At every depth two
    // identity chains must agree exactly when the byte chains agree:
    // an identity match the bytes deny would adopt foreign pages, and
    // a byte match the identities deny would lose a hit.
    ModelSpec base;
    base.layers = 2;
    base.heads = 4;
    base.kv_heads = 2;
    base.head_dim = 16;
    base.prompt_len = 40;
    base.decode_steps = 3;
    base.bits = 8;
    base.prefix_len = 24; // 3 pages of 8
    base.prefix_seed = 0x5eed;
    base.seed = 7;

    struct Case
    {
        std::string name;
        ModelSpec spec;
        int page_tokens = 0;
        bool same_rows = false; //!< prefix rows equal the base's
    };
    std::vector<Case> cases{{"base", base, kPage, true}};
    const auto vary = [&](std::string name, bool same_rows, auto edit,
                          int page_tokens = kPage) {
        Case c{std::move(name), base, page_tokens, same_rows};
        edit(c.spec);
        cases.push_back(c);
    };
    vary("prefix_seed", false, [](ModelSpec &s) { s.prefix_seed++; });
    vary("seed", true, [](ModelSpec &s) { s.seed++; });
    vary("heads", true, [](ModelSpec &s) { s.heads = 2; });
    vary("prompt_len", true, [](ModelSpec &s) { s.prompt_len = 64; });
    vary("decode_steps", true, [](ModelSpec &s) { s.decode_steps = 0; });
    vary("prefix_len 2 pages", true,
         [](ModelSpec &s) { s.prefix_len = 2 * kPage; });
    vary("prefix_len 3 pages + 7", true,
         [](ModelSpec &s) { s.prefix_len = 3 * kPage + 7; });
    vary("prefix_len 4 pages", true,
         [](ModelSpec &s) { s.prefix_len = 4 * kPage; });
    vary("concentration", false,
         [](ModelSpec &s) { s.concentration = 1.6; });
    vary("locality", false, [](ModelSpec &s) { s.locality = 0.7; });
    vary("bits 4", false, [](ModelSpec &s) { s.bits = 4; });
    vary("head_dim", false, [](ModelSpec &s) { s.head_dim = 32; });
    vary("layers", false, [](ModelSpec &s) { s.layers = 1; });
    vary("kv_heads", false, [](ModelSpec &s) { s.kv_heads = 1; });
    vary("page_tokens", false, [](ModelSpec &) {}, kPage / 2);

    std::vector<std::vector<uint64_t>> content;
    std::vector<std::vector<uint64_t>> identity;
    for (const Case &c : cases) {
        const ModelWorkload work(c.spec);
        content.push_back(contentPageChain(work, c.page_tokens));
        identity.push_back(work.prefixPageChain(c.page_tokens));
        ASSERT_EQ(identity.back().size(), content.back().size())
            << c.name;
        ASSERT_GE(content.back().size(), 2u) << c.name;
    }
    // The cases hold both kinds of pair, so the agreement below is
    // tested in both directions.
    for (std::size_t i = 0; i < cases.size(); i++)
        EXPECT_EQ(content[i][0] == content[0][0], cases[i].same_rows)
            << cases[i].name;

    for (std::size_t i = 0; i < cases.size(); i++) {
        for (std::size_t j = i + 1; j < cases.size(); j++) {
            const std::size_t depth =
                std::min(content[i].size(), content[j].size());
            for (std::size_t d = 0; d < depth; d++)
                EXPECT_EQ(identity[i][d] == identity[j][d],
                          content[i][d] == content[j][d])
                    << cases[i].name << " vs " << cases[j].name
                    << " at depth " << d;
        }
    }
}

} // namespace
} // namespace pade
