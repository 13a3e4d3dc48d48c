/**
 * @file
 * swtidy: the project's `softwalker-` static-analysis checks (see
 * docs/STATIC_ANALYSIS.md for the catalog and rationale).
 *
 * A lexer-level analyzer with no LLVM dependency, so the fixture suite
 * and the src/-tree cleanliness gate run under plain ctest on any
 * toolchain.  Findings are suppressed with `// NOLINT(softwalker-...)`.
 * Where the lexical model cannot prove a property (macro-generated code,
 * a declaration it cannot find) the engine stays silent rather than
 * guessing: it under-approximates, so it never blocks the build on a
 * false positive.
 *
 * Checks:
 *  - softwalker-nondeterministic-iteration: range-for / .begin() loops
 *    over std::unordered_{map,set,multimap,multiset} in src/ (hash order
 *    breaks the jobs=1-vs-8 and record/replay fingerprint contracts).
 *  - softwalker-wallclock-in-sim: *_clock::now(), rand(), srand(),
 *    std::random_device inside src/{sim,gpu,vm,mem,core,check}.
 *  - softwalker-stat-registration: counter fields of *Stats structs never
 *    referenced by the component's registerStats()/registerGauges(), and
 *    enumerators of *Category attribution enums (LedgerCategory) that
 *    categoryName() never names — either way the value silently vanishes
 *    from every metrics dump and exporter.
 *  - softwalker-audit-side-effect: SW_AUDIT/SW_LIFECYCLE arguments with
 *    side effects (assignment, ++/--, mutating member calls) — they run
 *    only in audit builds or while an observer is attached.
 *  - softwalker-raw-vpn-key: a bare Vpn-typed variable passed as the key
 *    of a translation-structure call (lookup/probe/fill/...) outside
 *    src/vm; since the TranslationKey migration the key is {asid, vpn},
 *    and a raw VPN silently means "ASID 0" — a containment hazard in
 *    multi-tenant code.  (In-tree the type system already makes the
 *    mistake a compile error; the check guards test/fixture code and
 *    future overloads.)
 *
 * Fixture files may carry directives (anywhere in a comment):
 *  - `SWTIDY-AS: <path>`   classify the file as if it lived at <path>
 *  - `SWTIDY-OPTION: allow-iteration=<substr>`   extend the iteration
 *    allowlist for this run
 */

#ifndef SW_TOOLS_TIDY_PORTABLE_ANALYZER_HH
#define SW_TOOLS_TIDY_PORTABLE_ANALYZER_HH

#include <set>
#include <string>
#include <vector>

namespace swtidy {

/** Check names, as findings and NOLINT suppressions spell them. */
inline constexpr const char *kNondeterministicIteration =
    "softwalker-nondeterministic-iteration";
inline constexpr const char *kWallclockInSim = "softwalker-wallclock-in-sim";
inline constexpr const char *kStatRegistration =
    "softwalker-stat-registration";
inline constexpr const char *kAuditSideEffect =
    "softwalker-audit-side-effect";
inline constexpr const char *kRawVpnKey = "softwalker-raw-vpn-key";

/** All check names, in catalog order. */
const std::vector<std::string> &allChecks();

/** One finding. */
struct Diagnostic
{
    std::string file;     ///< path as handed to the analyzer
    int line = 0;         ///< 1-based
    std::string check;    ///< softwalker-... name
    std::string message;

    bool
    operator<(const Diagnostic &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        return check < o.check;
    }
};

/** `file:line: warning: message [check]` */
std::string renderDiagnostic(const Diagnostic &diag);

struct Options
{
    /** Enabled check names; empty means all five. */
    std::set<std::string> enabled;

    /**
     * Path substrings exempt from the nondeterministic-iteration check
     * (pure-reporting code where hash order cannot reach simulated
     * state or any fingerprinted output).
     */
    std::vector<std::string> allowIteration;

    /** Directories the wallclock ban applies to. */
    std::vector<std::string> simDirs = {"src/sim", "src/gpu",  "src/vm",
                                        "src/mem", "src/core", "src/check",
                                        "src/prof"};

    /**
     * Directories where *_clock::now() is sanctioned: src/prof is the
     * host self-profiler's home and exists precisely to read the steady
     * clock.  Only the clock half of the wallclock check is waived —
     * rand()/srand()/random_device stay banned there (the profiler must
     * never add entropy), which is why src/prof sits in simDirs too.
     */
    std::vector<std::string> wallclockAllow = {"src/prof"};
};

/**
 * Analyzes a set of source files as one unit: declarations collected from
 * every file (container members in headers, registerStats bodies in
 * sibling .cc files) inform checks in every other file.
 */
class Analyzer
{
  public:
    explicit Analyzer(Options opts = {});
    ~Analyzer();

    Analyzer(const Analyzer &) = delete;
    Analyzer &operator=(const Analyzer &) = delete;

    /** Load @p path from disk. @return false (with a note) if unreadable. */
    bool addFile(const std::string &path);

    /** Add in-memory source, e.g. from a test. */
    void addSource(const std::string &path, std::string text);

    /** Run every enabled check over every added file. Sorted output. */
    std::vector<Diagnostic> run();

  private:
    struct Impl;
    Impl *impl;
};

} // namespace swtidy

#endif // SW_TOOLS_TIDY_PORTABLE_ANALYZER_HH
