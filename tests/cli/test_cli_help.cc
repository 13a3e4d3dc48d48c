/**
 * @file
 * Golden test over `swsim_cli --help`: the CLI surface is an interface
 * contract (scripts, CI jobs, and docs/EXPERIMENTS.md recipes all parse
 * or cite it), so any flag addition, removal, or rewording must show up
 * as an explicit golden-file diff in review.
 *
 * Regenerate after an intentional change:
 *   build/examples/swsim_cli --help > tests/cli/swsim_cli_help.golden
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
runHelp()
{
    std::string cmd = std::string(SWSIM_CLI_PATH) + " --help 2>&1";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    int status = pclose(pipe);
    EXPECT_EQ(status, 0) << "swsim_cli --help exited non-zero";
    return out;
}

/** Run swsim_cli with @p args; @return (exit status, stdout+stderr). */
std::pair<int, std::string>
runCli(const std::string &args)
{
    std::string cmd = std::string(SWSIM_CLI_PATH) + " " + args + " 2>&1";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    int status = pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(CliHelp, MatchesGolden)
{
    std::string golden =
        readFile(std::string(SW_SOURCE_DIR) + "/tests/cli/swsim_cli_help.golden");
    EXPECT_EQ(runHelp(), golden)
        << "swsim_cli --help drifted from tests/cli/swsim_cli_help.golden; "
           "if the change is intentional, regenerate the golden file "
           "(command in this file's header) and commit it";
}

TEST(CliHelp, DocumentsCheckpointFlags)
{
    // Belt and braces beyond the byte-exact golden: the checkpoint /
    // sampling surface this PR adds must be present by name.
    std::string help = runHelp();
    for (const char *flag :
         {"--ffwd", "--checkpoint-at", "--checkpoint-out", "--checkpoint-in",
          "--phase-sample", "--phase-window", "--phase-clusters"}) {
        EXPECT_NE(help.find(flag), std::string::npos)
            << "missing " << flag << " in --help output";
    }
}

TEST(CliHelp, DocumentsObservabilityFlags)
{
    // The streaming-export surface (cycle ledger, NDJSON event log,
    // Prometheus snapshot) must stay discoverable by name.
    std::string help = runHelp();
    for (const char *flag :
         {"--metrics-out", "--samples-out", "--ledger-out", "--events-out",
          "--prom-out"}) {
        EXPECT_NE(help.find(flag), std::string::npos)
            << "missing " << flag << " in --help output";
    }
}

TEST(CliNumbers, BadValuesAreUsageErrors)
{
    // Signs, values past 64 bits, 32-bit settings past 2^32 - 1, zero
    // walkers, windows, clusters or sample intervals, and non-positive or
    // non-finite scales and time weights end in the usual exit-2 error
    // instead of an abort, a hang, or a silently misread value.
    for (const char *args :
         {"--ptws -1", "--ptws +4", "--ptws 4294967328",
          "--intlb 4294967297", "--quota 18446744073709551616",
          "--quota -5", "--subtlb 4294967296", "--scale 0",
          "--scale -2", "--scale nan", "--scale inf", "--ptws ''",
          "--ptws 0", "--mode hybrid --ptws 0", "--phase-window 0",
          "--phase-clusters 0", "--phase-time-weight inf",
          "--phase-time-weight nan", "--sample-interval 0"}) {
        auto [status, out] = runCli(args);
        EXPECT_EQ(status, 2) << args << ": " << out;
        EXPECT_NE(out.find("(try --help)"), std::string::npos)
            << args << ": " << out;
    }
}

TEST(CliCombinations, IgnoredOptionsAreUsageErrors)
{
    // Each option here would be read by no run path: a phase-sampled run
    // writes only its sampled JSON and runs its plan's windows, not a
    // quota or a warmup, a replay keeps its recorded footprint, a co-run
    // neither records, checkpoints, samples phases, replays nor profiles,
    // the tenant options need a co-run, and the rest mean nothing without
    // their partner option.
    // Every one ends in the exit-2 usage error before anything runs.
    const std::string replay = "--replay t.swtrace ";
    const std::string sample = replay + "--phase-sample s.json ";
    const std::string corun = "--corun bfs,gemm ";
    const std::vector<std::string> cases = {
        sample + "--metrics-out m.json", sample + "--prom-out m.prom",
        sample + "--trace-out t.json", sample + "--samples-out s.csv",
        sample + "--ledger-out l.json", sample + "--events-out e.ndjson",
        sample + "--fingerprint-out f.fp", sample + "--profile-out p.json",
        sample + "--replay-end loop", sample + "--quota 7",
        sample + "--warmup 3", replay + "--scale 3",
        corun + "--record r.swtrace", corun + "--ffwd 100",
        corun + "--checkpoint-at 100",
        corun + "--checkpoint-at 100 --checkpoint-out c.swckpt",
        corun + "--checkpoint-in c.swckpt", corun + "--phase-sample s.json",
        corun + "--phase-window 100", corun + "--phase-clusters 2",
        corun + "--phase-warmup 100", corun + "--phase-skip 100",
        corun + "--phase-time-weight 1", corun + "--replay-end loop",
        corun + "--profile-out p.json",
        "--no-solo", "--mig", "--pw-arb rr", "--bench bfs --mig",
        "--checkpoint-out c.swckpt", "--sample-interval 500",
        "--replay-end loop", "--bench bfs --replay-end drain",
        replay + "--phase-window 100", "--phase-clusters 2",
        "--phase-warmup 0", "--phase-skip 10", "--phase-time-weight 0.5"};
    for (const std::string &args : cases) {
        auto [status, out] = runCli(args);
        EXPECT_EQ(status, 2) << args << ": " << out;
        EXPECT_NE(out.find("(try --help)"), std::string::npos)
            << args << ": " << out;
    }
}

TEST(CliNumbers, RangeErrorNamesTheFlag)
{
    auto [status, out] = runCli("--intlb 4294967297");
    EXPECT_EQ(status, 2);
    EXPECT_NE(out.find("--intlb value '4294967297' is out of range"),
              std::string::npos)
        << out;
}

TEST(CliNumbers, FootprintTooSmallForTheBenchmarkIsFatal)
{
    // A valid --scale can still leave a benchmark less footprint than it
    // works in; the workload factory's fatal names both sizes.
    auto [status, out] = runCli("--bench 2dc --scale 1e-7 --quota 10");
    EXPECT_EQ(status, 1) << out;
    EXPECT_NE(out.find("fatal: benchmark '2dc': its scaled footprint of "
                       "117 bytes is below the 256 bytes it needs"),
              std::string::npos)
        << out;
}

TEST(CliNumbers, FootprintBeyondTheAddressSpaceIsFatal)
{
    // A finite, positive --scale passes the flag check, but a footprint
    // past the 2^49-byte virtual address space (or past 2^64 bytes) would
    // alias pages; the fatal names the benchmark, its size and the limit.
    for (const char *scale : {"1e6", "1e12"}) {
        auto [status, out] = runCli(std::string("--bench bfs --scale ") +
                                    scale + " --quota 10");
        EXPECT_EQ(status, 1) << scale << ": " << out;
        EXPECT_NE(out.find("fatal: benchmark 'bfs': its scaled footprint "
                           "of 1.46381e+"),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find("bytes exceeds the 2^49-byte virtual address "
                           "space"),
                  std::string::npos)
            << out;
    }
}

} // namespace
