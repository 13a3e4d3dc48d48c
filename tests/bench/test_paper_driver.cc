/**
 * @file
 * The `paper` driver (bench/paper.cc): a figure rendered after another
 * prints exactly what it prints alone, a suite run two figures share is
 * simulated once, and an unknown figure name is a usage error.  Every run
 * uses tiny limits, so the figures' numbers are meaningless here; only
 * their equality is tested.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct Outcome
{
    int status = -1;
    std::string out;   ///< stdout: the rendered figures
    std::string err;   ///< stderr: progress and the run summary
};

/** Run `paper @p args` at tiny limits. */
Outcome
runPaper(const std::string &args)
{
    std::string err_path = ::testing::TempDir() + "paper_driver_" +
                           std::to_string(::getpid()) + ".err";
    std::string cmd = "SW_QUOTA=300 SW_WARMUP=0 SW_QUOTA_REG=300 "
                      "SW_WARMUP_REG=0 " +
                      std::string(PAPER_PATH) + " " + args + " 2>" +
                      err_path;
    Outcome outcome;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        outcome.out.append(buf, n);
    int status = pclose(pipe);
    outcome.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::ifstream err(err_path);
    std::ostringstream text;
    text << err.rdbuf();
    outcome.err = text.str();
    std::remove(err_path.c_str());
    return outcome;
}

TEST(PaperDriver, FiguresPrintTheirSoloOutputAndShareRuns)
{
    Outcome fig17 = runPaper("fig17_mshr_failures");
    Outcome fig20 = runPaper("fig20_l2_missrate");
    Outcome both = runPaper("fig17_mshr_failures fig20_l2_missrate");
    ASSERT_EQ(fig17.status, 0) << fig17.err;
    ASSERT_EQ(fig20.status, 0) << fig20.err;
    ASSERT_EQ(both.status, 0) << both.err;
    EXPECT_NE(fig17.out.find("Figure 17"), std::string::npos);
    EXPECT_NE(fig20.out.find("Figure 20"), std::string::npos);
    EXPECT_EQ(both.out, fig17.out + fig20.out);

    EXPECT_NE(fig17.err.find("paper: 24 suite runs requested, 24 "
                             "simulated\n"),
              std::string::npos)
        << fig17.err;
    // fig17's 12 irregular apps x {baseline, SoftWalker} are a subset of
    // fig20's 20 apps x the same two configurations.
    EXPECT_NE(both.err.find("paper: 64 suite runs requested, 40 "
                            "simulated\n"),
              std::string::npos)
        << both.err;
}

TEST(PaperDriver, UnknownFigureIsAUsageError)
{
    Outcome bad = runPaper("table3_config fig99_no_such_figure");
    EXPECT_EQ(bad.status, 2);
    EXPECT_EQ(bad.out, "") << "no figure renders before the names check";
    EXPECT_NE(bad.err.find("unknown figure 'fig99_no_such_figure'"),
              std::string::npos)
        << bad.err;
    EXPECT_NE(bad.err.find("  fig16_overall_speedup\n"), std::string::npos)
        << "the usage message lists the valid names";
}

} // namespace
