/**
 * @file
 * Fixture suite for swtidy, the softwalker- static-analysis engine, plus
 * the src/-tree cleanliness gate.
 *
 * Each fixture under tests/tidy/fixtures/ marks every line the analyzer
 * must diagnose with a trailing `// FIRE: <check-name>` comment; the test
 * asserts exact set equality between markers and findings, so both missed
 * diagnostics (false negatives) and extra diagnostics (false positives)
 * fail.  Clean fixtures simply carry no markers.  Fixtures steer the
 * engine with `SWTIDY-AS:` (classify the file as if it lived at a src/
 * path) and `SWTIDY-OPTION:` (per-run options) directives, which is how
 * the allowlist and directory-exemption paths are exercised.
 *
 * The same engine then sweeps every .hh/.cc under src/: the tree must be
 * diagnostic-free, which keeps the determinism/hot-path/observability
 * contracts enforced on any toolchain.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "portable/analyzer.hh"

namespace fs = std::filesystem;

namespace {

fs::path
sourceDir()
{
    return fs::path(SW_SOURCE_DIR);
}

fs::path
fixtureDir()
{
    return sourceDir() / "tests" / "tidy" / "fixtures";
}

/** (line, check) pairs from `// FIRE: <check>` markers in @p path. */
std::set<std::pair<int, std::string>>
parseExpected(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read fixture " << path;
    std::set<std::pair<int, std::string>> expected;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string marker = "// FIRE:";
        std::size_t at = line.find(marker);
        if (at == std::string::npos)
            continue;
        std::string check = line.substr(at + marker.size());
        // trim
        check.erase(0, check.find_first_not_of(" \t"));
        std::size_t end = check.find_last_not_of(" \t\r");
        check.erase(end == std::string::npos ? 0 : end + 1);
        if (check.empty()) {
            ADD_FAILURE() << path << ":" << lineno << ": empty FIRE marker";
            continue;
        }
        expected.emplace(lineno, check);
    }
    return expected;
}

std::set<std::pair<int, std::string>>
runFixture(const fs::path &path)
{
    swtidy::Analyzer analyzer;
    EXPECT_TRUE(analyzer.addFile(path.string()));
    std::set<std::pair<int, std::string>> actual;
    for (const swtidy::Diagnostic &diag : analyzer.run())
        actual.emplace(diag.line, diag.check);
    return actual;
}

void
expectFixture(const std::string &name)
{
    const fs::path path = fixtureDir() / name;
    auto expected = parseExpected(path);
    auto actual = runFixture(path);
    EXPECT_EQ(expected, actual) << "fixture " << name
                                << ": FIRE markers and findings disagree";
}

TEST(TidyFixtures, NondeterministicIterationFires)
{
    auto expected = parseExpected(fixtureDir() / "iteration_fire.cc");
    EXPECT_EQ(expected.size(), 2u) << "fixture should mark two loops";
    expectFixture("iteration_fire.cc");
}

TEST(TidyFixtures, NondeterministicIterationClean)
{
    expectFixture("iteration_clean.cc");
}

TEST(TidyFixtures, NondeterministicIterationAllowlist)
{
    expectFixture("iteration_allowlist.cc");
}

TEST(TidyFixtures, WallclockFires)
{
    auto expected = parseExpected(fixtureDir() / "wallclock_fire.cc");
    EXPECT_EQ(expected.size(), 3u)
        << "fixture should mark clock, rand and random_device";
    expectFixture("wallclock_fire.cc");
}

TEST(TidyFixtures, WallclockCleanInExemptDir)
{
    expectFixture("wallclock_clean.cc");
}

TEST(TidyFixtures, WallclockClockSanctionedInProfHome)
{
    // src/prof may read steady_clock (that is the profiler's whole job),
    // but the entropy half of the check still applies there: exactly the
    // rand/random_device markers fire, the clock read does not.
    auto expected = parseExpected(fixtureDir() / "wallclock_prof_home.cc");
    EXPECT_EQ(expected.size(), 2u)
        << "fixture should mark rand and random_device only";
    expectFixture("wallclock_prof_home.cc");
}

TEST(TidyFixtures, WallclockMacroBodyInSimStillFires)
{
    // The allowlist keys on where the clock read is *spelled*: a macro
    // whose body lives in a sim file keeps firing, so SW_PROF_SCOPE's
    // immunity (spelled in src/prof/hostprof.hh) cannot be forged by
    // wrapping a clock read in a local macro.
    auto expected = parseExpected(fixtureDir() / "wallclock_macro_body.cc");
    EXPECT_EQ(expected.size(), 1u);
    expectFixture("wallclock_macro_body.cc");
}

TEST(TidyFixtures, StatRegistrationFires)
{
    expectFixture("stats_fire.cc");
}

TEST(TidyFixtures, StatRegistrationClean)
{
    expectFixture("stats_clean.cc");
}

TEST(TidyFixtures, StatRegistrationSkipsDeclarationOnly)
{
    expectFixture("stats_declared_only.cc");
}

TEST(TidyFixtures, StatRegistrationLedgerCategoryFires)
{
    auto expected = parseExpected(fixtureDir() / "ledger_fire.cc");
    EXPECT_EQ(expected.size(), 1u)
        << "fixture should mark the unnamed category enumerator";
    expectFixture("ledger_fire.cc");
}

TEST(TidyFixtures, StatRegistrationLedgerCategoryClean)
{
    expectFixture("ledger_clean.cc");
}

TEST(TidyFixtures, AuditSideEffectFires)
{
    auto expected = parseExpected(fixtureDir() / "audit_fire.cc");
    EXPECT_EQ(expected.size(), 3u)
        << "fixture should mark ++, compound assignment and push_back";
    expectFixture("audit_fire.cc");
}

TEST(TidyFixtures, AuditSideEffectClean)
{
    expectFixture("audit_clean.cc");
}

TEST(TidyFixtures, RawVpnKeyFires)
{
    auto expected = parseExpected(fixtureDir() / "rawvpn_fire.cc");
    EXPECT_EQ(expected.size(), 4u)
        << "fixture should mark lookup, fill, allocPending and invalidate";
    expectFixture("rawvpn_fire.cc");
}

TEST(TidyFixtures, RawVpnKeyClean)
{
    expectFixture("rawvpn_clean.cc");
}

TEST(TidyFixtures, RawVpnKeySanctionedInVmHome)
{
    // src/vm is where the Vpn-level machinery lives (page tables, address
    // decomposition); raw-VPN calls are the intended interface there.
    expectFixture("rawvpn_vm_home.cc");
}

TEST(TidyFixtures, EveryCheckHasAFiringAndACleanFixture)
{
    // Guards against a future check landing without fixtures: every check
    // name must appear in at least one FIRE marker, and every check must
    // have at least one marker-free fixture exercising its clean path.
    std::set<std::string> fired;
    std::size_t cleanFixtures = 0;
    for (const auto &entry : fs::directory_iterator(fixtureDir())) {
        auto expected = parseExpected(entry.path());
        if (expected.empty())
            ++cleanFixtures;
        for (const auto &[line, check] : expected)
            fired.insert(check);
    }
    for (const std::string &check : swtidy::allChecks())
        EXPECT_TRUE(fired.count(check))
            << "no firing fixture for " << check;
    EXPECT_GE(cleanFixtures, 5u);
}

// The gate: the real tree must be diagnostic-free.  True positives get
// fixed in-tree (see src/sim/ordered.hh for the sanctioned iteration
// helper); suppressions require a NOLINT with a justification comment per
// docs/STATIC_ANALYSIS.md.
TEST(TidySourceTree, SrcIsDiagnosticClean)
{
    swtidy::Analyzer analyzer;
    std::vector<std::string> files;
    for (const auto &entry :
         fs::recursive_directory_iterator(sourceDir() / "src")) {
        if (!entry.is_regular_file())
            continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".hh" || ext == ".cc")
            files.push_back(entry.path().string());
    }
    ASSERT_GE(files.size(), 50u) << "src/ walk looks wrong";
    std::sort(files.begin(), files.end());
    for (const std::string &file : files)
        ASSERT_TRUE(analyzer.addFile(file)) << "cannot read " << file;

    std::ostringstream report;
    auto diags = analyzer.run();
    for (const swtidy::Diagnostic &diag : diags)
        report << "  " << swtidy::renderDiagnostic(diag) << "\n";
    EXPECT_TRUE(diags.empty())
        << diags.size() << " softwalker- finding(s) in src/ — fix in-tree "
        << "or suppress with a justified NOLINT "
        << "(docs/STATIC_ANALYSIS.md):\n"
        << report.str();
}

} // namespace
