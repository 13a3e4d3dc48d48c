// SWTIDY-AS: src/check/fixture_audit_clean.cc
//
// Clean cases for softwalker-audit-side-effect: comparisons, reads, and
// non-mutating member calls are safe in any build variant.

#include <cstdint>
#include <vector>

namespace sw {

struct FixtureAuditCtx;
struct FixtureStream;

struct FixtureComponent
{
    std::uint64_t counter = 0;
    std::uint64_t limit = 100;
    std::vector<std::uint64_t> slots;

    void
    goodComparisons(FixtureAuditCtx &ctx)
    {
        SW_AUDIT(ctx, counter == limit);
        SW_AUDIT(ctx, counter <= limit);
        SW_AUDIT(ctx, counter >= 1);
        SW_AUDIT(ctx, counter != 0);
    }

    void
    goodReads(FixtureStream &stream, std::uint64_t vpn)
    {
        SW_LIFECYCLE(stream, vpn, slots.size(), counter > limit);
        SW_AUDIT(ctx_, !slots.empty() && slots.front() < vpn);
    }

    FixtureAuditCtx &ctx_;
};

} // namespace sw
