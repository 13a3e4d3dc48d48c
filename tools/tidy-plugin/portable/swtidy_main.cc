/**
 * @file
 * swtidy: command-line driver for the `softwalker-` checks.
 *
 *   swtidy [options] <file>...
 *
 * Prints clang-tidy-style diagnostics (`file:line: warning: ... [check]`)
 * and exits 1 when any check fired, so it slots straight into CI.  See
 * docs/STATIC_ANALYSIS.md.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analyzer.hh"

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: swtidy [options] <file>...\n"
        "\n"
        "Portable runner for the softwalker- static-analysis checks.\n"
        "\n"
        "options:\n"
        "  --checks=a,b,...        comma list of check names to enable\n"
        "                          (default: all; the softwalker- prefix\n"
        "                          may be omitted)\n"
        "  --allow-iteration=SUB   path substring exempt from the\n"
        "                          nondeterministic-iteration check\n"
        "                          (repeatable)\n"
        "  --list-checks           print the check catalog and exit\n"
        "  --quiet                 suppress the summary line\n"
        "  -h, --help              this text\n");
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    swtidy::Options opts;
    std::vector<std::string> paths;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        }
        if (arg == "--list-checks") {
            for (const std::string &name : swtidy::allChecks())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        if (arg == "--quiet") {
            quiet = true;
            continue;
        }
        if (startsWith(arg, "--checks=")) {
            for (std::string name : splitCommas(arg.substr(9))) {
                if (name.empty())
                    continue;
                if (!startsWith(name, "softwalker-"))
                    name = "softwalker-" + name;
                bool known = false;
                for (const std::string &c : swtidy::allChecks())
                    known = known || c == name;
                if (!known) {
                    std::fprintf(stderr, "swtidy: unknown check '%s'\n",
                                 name.c_str());
                    return 2;
                }
                opts.enabled.insert(name);
            }
            continue;
        }
        if (startsWith(arg, "--allow-iteration=")) {
            opts.allowIteration.push_back(arg.substr(18));
            continue;
        }
        if (startsWith(arg, "-")) {
            std::fprintf(stderr, "swtidy: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
        paths.push_back(arg);
    }

    if (paths.empty()) {
        usage(stderr);
        return 2;
    }

    swtidy::Analyzer analyzer(opts);
    for (const std::string &path : paths) {
        if (!analyzer.addFile(path)) {
            std::fprintf(stderr, "swtidy: cannot read '%s'\n", path.c_str());
            return 2;
        }
    }

    std::vector<swtidy::Diagnostic> diags = analyzer.run();
    for (const swtidy::Diagnostic &d : diags)
        std::printf("%s\n", swtidy::renderDiagnostic(d).c_str());
    if (!quiet) {
        std::fprintf(stderr, "swtidy: %zu file(s), %zu finding(s)\n",
                     paths.size(), diags.size());
    }
    return diags.empty() ? 0 : 1;
}
