#include "serving/prefix_index.h"

#include <algorithm>

#include "common/check.h"
#include "obs/telemetry.h"

namespace pade {

namespace {

// Registry mirror of PrefixIndexStats (docs/OBSERVABILITY.md): the
// struct is per-index and handed back via stats(); these counters
// fold every index in the process into the one stats snapshot the
// batcher exports.
struct PrefixMetrics
{
    obs::Counter &lookups;
    obs::Counter &hit_pages;
    obs::Counter &miss_lookups;
    obs::Counter &published;
    obs::Counter &rejected;
    obs::Counter &evictions;

    static PrefixMetrics &
    get()
    {
        static PrefixMetrics m{
            obs::Registry::instance().counter("prefix.lookups"),
            obs::Registry::instance().counter("prefix.hit_pages"),
            obs::Registry::instance().counter("prefix.miss_lookups"),
            obs::Registry::instance().counter("prefix.published"),
            obs::Registry::instance().counter("prefix.rejected"),
            obs::Registry::instance().counter("prefix.evictions"),
        };
        return m;
    }
};

} // namespace

PrefixIndex::PrefixIndex(PrefixIndexOptions opt) : opt_(opt)
{
    PADE_CHECK_GE(opt_.streams, 1);
}

PrefixIndex::~PrefixIndex() = default;

void
PrefixIndex::walk(std::span<const uint64_t> chain,
                  std::vector<Node *> &out) const
{
    out.clear();
    const std::unordered_map<uint64_t, std::unique_ptr<Node>> *level =
        &roots_;
    for (uint64_t key : chain) {
        const auto it = level->find(key);
        if (it == level->end())
            break;
        out.push_back(it->second.get());
        level = &it->second->children;
    }
}

PrefixMatch
PrefixIndex::acquire(std::span<const uint64_t> chain)
{
    MutexLock lock(mu_);
    stats_.lookups++;

    std::vector<Node *> path;
    walk(chain, path);
    PrefixMatch match;
    match.pages = static_cast<int>(path.size());
    match.shared.reserve(path.size() *
                         static_cast<std::size_t>(opt_.streams));
    tick_++;
    for (Node *node : path) {
        node->readers++;
        node->last_use = tick_;
        match.shared.insert(match.shared.end(), node->pages.begin(),
                            node->pages.end());
    }
    stats_.hit_pages += static_cast<uint64_t>(match.pages);
    if (match.pages == 0)
        stats_.miss_lookups++;
    PrefixMetrics &m = PrefixMetrics::get();
    m.lookups.add(1);
    m.hit_pages.add(static_cast<uint64_t>(match.pages));
    if (match.pages == 0)
        m.miss_lookups.add(1);
    return match;
}

void
PrefixIndex::release(std::span<const uint64_t> chain, int depth)
{
    PADE_CHECK_GE(depth, 0);
    if (depth == 0)
        return;
    MutexLock lock(mu_);

    std::vector<Node *> path;
    walk(chain, path);
    // The released path must still exist in full: eviction never
    // removes a node with readers > 0, so a missing node here means
    // the caller released a chain it never acquired (or released
    // twice) — exactly the underflow this CHECK exists to catch.
    PADE_CHECK_LE(depth, static_cast<int>(path.size()));
    for (int d = 0; d < depth; d++) {
        Node *node = path[static_cast<std::size_t>(d)];
        PADE_CHECK_GT(node->readers, 0);
        node->readers--;
    }
}

int
PrefixIndex::publish(
    std::span<const uint64_t> chain,
    std::span<const std::shared_ptr<const KvPage>> pages)
{
    PADE_CHECK_EQ(pages.size(), chain.size() *
                  static_cast<std::size_t>(opt_.streams));
    MutexLock lock(mu_);

    int fresh = 0;
    tick_++;
    std::unordered_map<uint64_t, std::unique_ptr<Node>> *level =
        &roots_;
    Node *parent = nullptr;
    for (std::size_t d = 0; d < chain.size(); d++) {
        auto it = level->find(chain[d]);
        if (it == level->end()) {
            auto node = std::make_unique<Node>();
            node->key = chain[d];
            node->depth = static_cast<int>(d);
            node->parent = parent;
            node->pages.assign(
                pages.begin() + static_cast<std::ptrdiff_t>(
                                    d * opt_.streams),
                pages.begin() + static_cast<std::ptrdiff_t>(
                                    (d + 1) * opt_.streams));
            for (const auto &p : node->pages) {
                PADE_CHECK(p != nullptr);
                PADE_CHECK(p->full());
                node->bytes += kvPageBytes(*p);
            }
            node->last_use = tick_;
            stats_.bytes += node->bytes;
            stats_.nodes++;
            stats_.published++;
            PrefixMetrics::get().published.add(1);
            fresh++;
            it = level->emplace(chain[d], std::move(node)).first;
        } else {
            // First publisher wins: sessions that built the same
            // prefix converge on one page set. Equal chain entries
            // already attest equal content (see the keying note in
            // prefix_index.h); re-registering is a no-op beyond the
            // LRU touch.
            stats_.rejected++;
            PrefixMetrics::get().rejected.add(1);
            it->second->last_use = tick_;
        }
        parent = it->second.get();
        level = &parent->children;
    }
    if (opt_.max_bytes > 0)
        evictToBudget();
    return fresh;
}

void
PrefixIndex::evictToBudget()
{
    while (stats_.bytes > opt_.max_bytes) {
        // Leaf-first LRU: only a node with no children may go (an
        // interior eviction would orphan deeper matches), and only
        // with zero readers (a live acquire() must never lose its
        // pages' index entry under it — the pages themselves are
        // additionally pinned by the readers' shared_ptrs).
        Node *victim = nullptr;
        std::vector<std::unordered_map<
            uint64_t, std::unique_ptr<Node>> *> stack{&roots_};
        while (!stack.empty()) {
            auto *level = stack.back();
            stack.pop_back();
            for (auto &[key, node] : *level) {
                if (node->children.empty()) {
                    if (node->readers == 0 &&
                        (!victim ||
                         node->last_use < victim->last_use))
                        victim = node.get();
                } else {
                    stack.push_back(&node->children);
                }
            }
        }
        if (!victim)
            return; // everything evictable is in use; run over budget
        stats_.bytes -= victim->bytes;
        stats_.nodes--;
        stats_.evictions++;
        PrefixMetrics::get().evictions.add(1);
        auto *level =
            victim->parent ? &victim->parent->children : &roots_;
        level->erase(victim->key);
    }
}

PrefixIndexStats
PrefixIndex::stats() const
{
    MutexLock lock(mu_);
    return stats_;
}

int
PrefixIndex::readersOf(std::span<const uint64_t> chain) const
{
    MutexLock lock(mu_);
    std::vector<Node *> path;
    walk(chain, path);
    if (chain.empty() || path.size() != chain.size())
        return -1;
    return path.back()->readers;
}

} // namespace pade
