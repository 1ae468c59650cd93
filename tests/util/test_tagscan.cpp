#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"
#include "util/tagscan.hpp"

using namespace pccsim;

namespace {

int
naiveFind(const std::vector<u64> &tags, u64 tag)
{
    for (u32 w = 0; w < tags.size(); ++w)
        if (tags[w] == tag)
            return static_cast<int>(w);
    return -1;
}

/**
 * A set of `ways` unique tags, some of them the ~0 empty-way sentinel
 * the caches use, and a probe that is a resident tag, a tag sharing
 * only its low or only its high 32 bits with a resident one (which a
 * compare of one half would wrongly match), or an unrelated tag.
 */
struct Probe
{
    std::vector<u64> tags;
    u64 tag;
};

Probe
makeProbe(Rng &rng, u32 ways)
{
    Probe p;
    while (p.tags.size() < ways) {
        const u64 t = rng.chance(0.1) ? ~0ull : rng.next();
        if (naiveFind(p.tags, t) < 0)
            p.tags.push_back(t);
    }
    const u64 near = p.tags[rng.below(ways)];
    switch (rng.below(4)) {
      case 0:
        p.tag = near;
        break;
      case 1:
        p.tag = near ^ (u64{1} << (32 + rng.below(32)));
        break;
      case 2:
        p.tag = near ^ (u64{1} << rng.below(32));
        break;
      default:
        p.tag = rng.next();
        break;
    }
    return p;
}

} // namespace

TEST(TagScan, FindTagMatchesLinearSearch)
{
    Rng rng(11);
    for (u32 ways = 1; ways <= 32; ++ways)
        for (int trial = 0; trial < 500; ++trial) {
            const Probe p = makeProbe(rng, ways);
            ASSERT_EQ(util::findTag(p.tags.data(), ways, p.tag),
                      naiveFind(p.tags, p.tag))
                << "ways " << ways << " trial " << trial;
        }
}

#if defined(__SSE2__)
TEST(TagScan, FindTagSse2MatchesLinearSearch)
{
    Rng rng(12);
    for (int trial = 0; trial < 4000; ++trial) {
        const Probe p8 = makeProbe(rng, 8);
        ASSERT_EQ(util::findTagSse2<8>(p8.tags.data(), p8.tag),
                  naiveFind(p8.tags, p8.tag))
            << "trial " << trial;
        const Probe p16 = makeProbe(rng, 16);
        ASSERT_EQ(util::findTagSse2<16>(p16.tags.data(), p16.tag),
                  naiveFind(p16.tags, p16.tag))
            << "trial " << trial;
    }
}
#endif
