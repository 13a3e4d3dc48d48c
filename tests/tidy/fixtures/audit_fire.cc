// SWTIDY-AS: src/check/fixture_audit_fire.cc
//
// Firing cases for softwalker-audit-side-effect: SW_AUDIT/SW_LIFECYCLE
// arguments with side effects execute only in audit builds or while an
// observer is attached, so plain runs diverge.

#include <cstdint>
#include <vector>

namespace sw {

struct FixtureAuditCtx;
struct FixtureStream;

struct FixtureComponent
{
    std::uint64_t counter = 0;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> slots;

    void
    badIncrement(FixtureAuditCtx &ctx)
    {
        SW_AUDIT(ctx, counter++ < 100); // FIRE: softwalker-audit-side-effect
    }

    void
    badCompoundAssign(FixtureAuditCtx &ctx, std::uint64_t delta)
    {
        SW_AUDIT(ctx, (total += delta) < 1000); // FIRE: softwalker-audit-side-effect
    }

    void
    badMutatorCall(FixtureStream &stream, std::uint64_t vpn)
    {
        SW_LIFECYCLE(stream, slots.push_back(vpn)); // FIRE: softwalker-audit-side-effect
    }
};

} // namespace sw
