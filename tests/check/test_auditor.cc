/** @file Unit tests for the Auditor registry and its event-queue sweep. */

#include <gtest/gtest.h>

#include "check/audit.hh"
#include "sim/event_queue.hh"

using namespace sw;

namespace {

TEST(Auditor, RegistersNamedAudits)
{
    Auditor auditor;
    EXPECT_EQ(auditor.numAudits(), 0u);
    auditor.registerAudit("a.first", AuditScope::Continuous,
                          [](AuditContext &) {});
    auditor.registerAudit("a.second", AuditScope::Quiescent,
                          [](AuditContext &) {});
    EXPECT_EQ(auditor.numAudits(), 2u);
    EXPECT_TRUE(auditor.hasAudit("a.first"));
    EXPECT_TRUE(auditor.hasAudit("a.second"));
    EXPECT_FALSE(auditor.hasAudit("a.third"));
    EXPECT_EQ(auditor.auditNames(),
              (std::vector<std::string>{"a.first", "a.second"}));
}

TEST(Auditor, DuplicateRegistrationPanics)
{
    Auditor auditor;
    auditor.registerAudit("dup", AuditScope::Continuous,
                          [](AuditContext &) {});
    EXPECT_DEATH(auditor.registerAudit("dup", AuditScope::Continuous,
                                       [](AuditContext &) {}),
                 "duplicate audit registration");
}

TEST(Auditor, RecordPolicyAccumulatesViolations)
{
    Auditor auditor;
    auditor.setPolicy(Auditor::FailurePolicy::Record);
    auditor.registerAudit("always.fails", AuditScope::Continuous,
                          [](AuditContext &ctx) { ctx.fail("broken"); });
    auditor.registerAudit("always.passes", AuditScope::Continuous,
                          [](AuditContext &) {});

    auditor.checkNow(123);
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].audit, "always.fails");
    EXPECT_EQ(auditor.violations()[0].detail, "broken");
    EXPECT_EQ(auditor.violations()[0].cycle, 123u);
    EXPECT_TRUE(auditor.fired("always.fails"));
    EXPECT_FALSE(auditor.fired("always.passes"));

    auditor.clearViolations();
    EXPECT_TRUE(auditor.violations().empty());
    EXPECT_FALSE(auditor.fired("always.fails"));
}

TEST(Auditor, PanicPolicyRoutesThroughFailureSink)
{
    Auditor auditor;
    auditor.registerAudit("fatal.check", AuditScope::Continuous,
                          [](AuditContext &ctx) { ctx.fail("boom"); });
    EXPECT_DEATH(auditor.checkNow(7),
                 "audit 'fatal.check' failed at cycle 7: boom");
}

TEST(Auditor, QuiescentAuditsSkippedWhileRunning)
{
    Auditor auditor;
    auditor.setPolicy(Auditor::FailurePolicy::Record);
    auditor.registerAudit("drain.only", AuditScope::Quiescent,
                          [](AuditContext &ctx) { ctx.fail("leak"); });

    auditor.checkNow(10, /*quiescent=*/false);
    EXPECT_TRUE(auditor.violations().empty());

    auditor.finalCheck(20, /*quiescent=*/false);   // hit the cycle cap
    EXPECT_TRUE(auditor.violations().empty());

    auditor.finalCheck(30, /*quiescent=*/true);    // drained
    EXPECT_TRUE(auditor.fired("drain.only"));
}

TEST(Auditor, StatsCountSweepsAndViolations)
{
    Auditor auditor;
    auditor.setPolicy(Auditor::FailurePolicy::Record);
    auditor.registerAudit("sometimes", AuditScope::Continuous,
                          [n = 0](AuditContext &ctx) mutable {
                              if (++n == 2)
                                  ctx.fail("second sweep only");
                          });
    auditor.checkNow(1);
    auditor.checkNow(2);
    auditor.checkNow(3);
    EXPECT_EQ(auditor.stats().sweeps, 3u);
    EXPECT_EQ(auditor.stats().auditsRun, 3u);
    EXPECT_EQ(auditor.stats().violations, 1u);
}

/** The periodic sweep piggybacks on real events at the given interval. */
TEST(Auditor, PeriodicSweepFollowsTheInterval)
{
    EventQueue eq;
    Auditor auditor;
    auditor.setPolicy(Auditor::FailurePolicy::Record);
    std::vector<Cycle> sweeps;
    auditor.registerAudit("probe", AuditScope::Continuous,
                          [&](AuditContext &) {
                              sweeps.push_back(eq.now());
                          });
    auditor.schedulePeriodic(eq, 100);

    for (Cycle c = 10; c <= 510; c += 10)
        eq.schedule(c, [] {});
    eq.run();

    // Sweeps ride on events: one per elapsed interval, at event times.
    ASSERT_EQ(sweeps.size(), 5u);
    EXPECT_EQ(sweeps, (std::vector<Cycle>{100, 200, 300, 400, 500}));
}

/**
 * Sweeping must not perturb the simulated timeline: the final cycle and
 * event count are identical with auditing on and off (regression for the
 * scheduled-audit-event design that quantised run length to the interval).
 */
TEST(Auditor, PeriodicSweepDoesNotPerturbTheTimeline)
{
    auto run_once = [](bool with_audits) {
        EventQueue eq;
        Auditor auditor;
        auditor.setPolicy(Auditor::FailurePolicy::Record);
        auditor.registerAudit("noop", AuditScope::Continuous,
                              [](AuditContext &) {});
        if (with_audits)
            auditor.schedulePeriodic(eq, 50);
        // A drip of events ending at an interval-unaligned cycle.
        std::function<void(int)> chain = [&](int depth) {
            if (depth > 0)
                eq.scheduleIn(37, [&, depth] { chain(depth - 1); });
        };
        chain(10);
        eq.run();
        return std::make_pair(eq.now(), eq.eventsExecuted());
    };
    EXPECT_EQ(run_once(false), run_once(true));
}

/**
 * Gpu::runSegment re-arms the sweep once per segment: a second call on the
 * same queue replaces the first subscription instead of adding another.
 */
TEST(Auditor, ReschedulingKeepsOneSubscription)
{
    EventQueue eq;
    Auditor auditor;
    auditor.setPolicy(Auditor::FailurePolicy::Record);
    std::vector<Cycle> sweeps;
    auditor.registerAudit("probe", AuditScope::Continuous,
                          [&](AuditContext &) {
                              sweeps.push_back(eq.now());
                          });
    auditor.schedulePeriodic(eq, 100);
    auditor.schedulePeriodic(eq, 100);
    EXPECT_EQ(eq.numPeriodicChecks(), 1u);

    for (Cycle c = 10; c <= 200; c += 10)
        eq.schedule(c, [] {});
    eq.run();
    EXPECT_EQ(sweeps, (std::vector<Cycle>{100, 200}));
}

/** An idle queue never sweeps: the hook cannot keep a drained sim alive. */
TEST(Auditor, NoSweepsWithoutEvents)
{
    EventQueue eq;
    Auditor auditor;
    auditor.setPolicy(Auditor::FailurePolicy::Record);
    std::uint64_t sweeps = 0;
    auditor.registerAudit("probe", AuditScope::Continuous,
                          [&](AuditContext &) { ++sweeps; });
    auditor.schedulePeriodic(eq, 10);
    eq.run();
    EXPECT_EQ(sweeps, 0u);
    EXPECT_EQ(eq.now(), 0u);
}

/** Scheduling into the past is rejected in every build flavour. */
TEST(AuditorDeath, PastTimeEventPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100u);
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

} // namespace
