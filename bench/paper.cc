/**
 * @file
 * The paper driver: `paper` renders every reproduced table and figure in
 * name order, `paper <name>...` the named ones in the order given.  Each
 * prints exactly what it prints alone, while runSuites() simulates a run
 * that several of them share once.  An unknown name exits 2; otherwise
 * the exit status is non-zero when any figure's own validation failed.
 */

#include "bench_common.hh"

using namespace swbench;

int
main(int argc, char **argv)
{
    setVerbose(false);

    std::vector<FigureFn> chosen;
    for (int i = 1; i < argc; ++i) {
        auto it = figures().find(argv[i]);
        if (it == figures().end()) {
            std::fprintf(stderr, "paper: unknown figure '%s'; valid names:\n",
                         argv[i]);
            for (const auto &[name, fn] : figures())
                std::fprintf(stderr, "  %s\n", name.c_str());
            return 2;
        }
        chosen.push_back(it->second);
    }
    if (argc == 1) {
        for (const auto &[name, fn] : figures())
            chosen.push_back(fn);
    }

    int status = 0;
    for (FigureFn figure : chosen)
        status |= figure() != 0;
    std::fflush(stdout);
    std::fprintf(stderr, "paper: %zu suite runs requested, %zu simulated\n",
                 requestedRuns, simulatedRuns.size());
    return status;
}
