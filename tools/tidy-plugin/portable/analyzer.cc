/**
 * @file
 * Lexer-level engine behind the `softwalker-` checks.  See analyzer.hh
 * for scope.
 *
 * The engine works on *stripped* text: comments, string/char literals and
 * preprocessor lines are blanked (length-preserving, so every offset maps
 * straight back to a line/column in the original file).  Collection
 * passes then build a cross-file picture — unordered-container names,
 * struct layouts, type aliases, registerStats bodies — and the checks run
 * over the stripped text consulting it.
 */

#include "analyzer.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

namespace swtidy {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

/** True when the whole word @p word starts at @p pos of @p text. */
bool
wordAt(const std::string &text, std::size_t pos, const std::string &word)
{
    if (pos + word.size() > text.size())
        return false;
    if (text.compare(pos, word.size(), word) != 0)
        return false;
    if (pos > 0 && identChar(text[pos - 1]))
        return false;
    std::size_t end = pos + word.size();
    return end >= text.size() || !identChar(text[end]);
}

std::size_t
skipSpaces(const std::string &text, std::size_t pos)
{
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    return pos;
}

/**
 * Position just past the parenthesis/bracket/brace group opening at
 * @p open, or npos when unbalanced.
 */
std::size_t
matchGroup(const std::string &text, std::size_t open)
{
    char o = text[open];
    char c = o == '(' ? ')' : o == '[' ? ']' : o == '{' ? '}' : '\0';
    if (!c)
        return std::string::npos;
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == o)
            ++depth;
        else if (text[i] == c && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

/** Splits @p s on commas at paren/bracket/brace/angle depth 0. */
std::vector<std::string>
splitTopLevel(const std::string &s)
{
    std::vector<std::string> parts;
    int round = 0, square = 0, curly = 0, angle = 0;
    std::string cur;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char ch = s[i];
        switch (ch) {
          case '(': ++round; break;
          case ')': --round; break;
          case '[': ++square; break;
          case ']': --square; break;
          case '{': ++curly; break;
          case '}': --curly; break;
          case '<':
            // "<<" and "<=" are operators, not template opens.
            if (i + 1 < s.size() && (s[i + 1] == '<' || s[i + 1] == '='))
                cur += s[i++];
            else
                ++angle;
            break;
          case '>':
            if (i > 0 && s[i - 1] == '-')
                break; // "->"
            if (i + 1 < s.size() && s[i + 1] == '=')
                { cur += s[i++]; break; } // ">="
            if (angle > 0)
                --angle;
            break;
          case ',':
            if (!round && !square && !curly && !angle) {
                parts.push_back(cur);
                cur.clear();
                continue;
            }
            break;
          default: break;
        }
        cur += ch;
    }
    if (!trim(cur).empty() || !parts.empty())
        parts.push_back(cur);
    return parts;
}

/** Strips comments / string and char literals / preprocessor lines. */
std::string
stripText(const std::string &text)
{
    std::string out = text;
    enum State { Code, Line, Block, Str, Chr, Raw } state = Code;
    std::string rawDelim;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
          case Code:
            if (c == '/' && n == '/') {
                state = Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                state = Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                // Raw string literal: R"delim( ... )delim"
                if (i > 0 && text[i - 1] == 'R' &&
                    (i < 2 || !identChar(text[i - 2]))) {
                    std::size_t open = text.find('(', i + 1);
                    if (open != std::string::npos) {
                        rawDelim = ")" + text.substr(i + 1, open - i - 1) +
                                   "\"";
                        state = Raw;
                        continue;
                    }
                }
                state = Str;
            } else if (c == '\'') {
                // Digit separators (1'000) are not char literals.
                if (i > 0 && std::isdigit(static_cast<unsigned char>(
                                 text[i - 1])))
                    break;
                state = Chr;
            }
            break;
          case Line:
            if (c == '\n')
                state = Code;
            else
                out[i] = ' ';
            break;
          case Block:
            if (c == '*' && n == '/') {
                out[i] = out[i + 1] = ' ';
                ++i;
                state = Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case Str:
            if (c == '\\' && n) {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                state = Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case Chr:
            if (c == '\\' && n) {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                state = Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case Raw:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (std::size_t k = 0; k < rawDelim.size(); ++k)
                    out[i + k] = ' ';
                i += rawDelim.size() - 1;
                state = Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

struct Field
{
    std::string type;
    std::string name;
    int line = 0;            ///< 1-based
};

struct StructDef
{
    std::string name;
    std::string file;
    std::string stem;
    int line = 0;
    std::vector<Field> fields;
};

/** One enumerator of a category enum (see EnumDef). */
struct Enumerator
{
    std::string name;
    int line = 0;
};

/**
 * A `*Category` attribution enum (e.g. LedgerCategory): its enumerators
 * are the taxonomy the cycle ledger registers stats and emits JSON for,
 * all routed through a categoryName() switch.  An enumerator that
 * categoryName() never names silently disappears from every export.
 */
struct EnumDef
{
    std::string name;
    std::string file;
    std::string stem;
    int line = 0;
    std::vector<Enumerator> enumerators;
};

struct SourceFile
{
    std::string path;        ///< as given (used in diagnostics)
    std::string effective;   ///< SWTIDY-AS override, else path
    std::string stem;        ///< effective minus extension
    std::string raw;
    std::string code;        ///< stripped
    /**
     * Preprocessor-directive text (macro bodies included), blank
     * everywhere else.  Offset-aligned with `code` so positions found in
     * it report on the right line.  The wallclock check scans it: a clock
     * read hiding in a #define spelled in a sim file is still a clock
     * read in a sim file.
     */
    std::string ppText;
    std::vector<std::size_t> lineStarts;           ///< offsets into code
    std::vector<std::set<std::string>> nolint;     ///< per 1-based line
    std::vector<std::string> allowIteration;       ///< file directives

    int
    lineOf(std::size_t pos) const
    {
        auto it = std::upper_bound(lineStarts.begin(), lineStarts.end(), pos);
        return static_cast<int>(it - lineStarts.begin());
    }
};

const char *const kUnorderedNames[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const char *const kMutatorNames[] = {
    "push_back", "pop_back",     "push_front", "pop_front", "insert",
    "erase",     "clear",        "emplace",    "emplace_back",
    "reset",     "release",      "resize",     "assign"};

} // namespace

const std::vector<std::string> &
allChecks()
{
    static const std::vector<std::string> names = {
        kNondeterministicIteration, kWallclockInSim, kStatRegistration,
        kAuditSideEffect, kRawVpnKey};
    return names;
}

std::string
renderDiagnostic(const Diagnostic &diag)
{
    std::ostringstream os;
    os << diag.file << ":" << diag.line << ": warning: " << diag.message
       << " [" << diag.check << "]";
    return os.str();
}

struct Analyzer::Impl
{
    Options opts;
    std::vector<SourceFile> files;
    std::vector<Diagnostic> diags;

    // Cross-file knowledge, built by collect().
    std::set<std::string> unorderedVars;
    std::map<std::string, std::string> aliases;      ///< using A = B;
    std::vector<StructDef> structs;
    std::vector<EnumDef> categoryEnums;
    std::map<std::string, std::string> registerBodies; ///< stem -> text
    std::map<std::string, std::string> categoryBodies; ///< stem -> text

    explicit Impl(Options o) : opts(std::move(o)) {}

    bool
    checkEnabled(const std::string &name) const
    {
        return opts.enabled.empty() || opts.enabled.count(name) != 0;
    }

    void
    report(const SourceFile &f, std::size_t pos, const std::string &check,
           std::string msg)
    {
        int line = f.lineOf(pos);
        if (line >= 1 && line <= static_cast<int>(f.nolint.size())) {
            const std::set<std::string> &supp =
                f.nolint[static_cast<std::size_t>(line - 1)];
            if (supp.count("*") || supp.count(check))
                return;
        }
        diags.push_back(Diagnostic{f.path, line, check, std::move(msg)});
    }

    // ---- loading ----------------------------------------------------------

    void
    addSource(const std::string &path, std::string text)
    {
        SourceFile f;
        f.path = path;
        f.effective = path;
        f.raw = std::move(text);
        f.code = stripText(f.raw);
        blankPreprocessorLines(f);
        f.lineStarts.push_back(0);
        for (std::size_t i = 0; i < f.code.size(); ++i)
            if (f.code[i] == '\n')
                f.lineStarts.push_back(i + 1);
        parseCommentDirectives(f);
        std::size_t dot = f.effective.find_last_of('.');
        f.stem = dot == std::string::npos ? f.effective
                                          : f.effective.substr(0, dot);
        files.push_back(std::move(f));
    }

    static void
    blankPreprocessorLines(SourceFile &f)
    {
        f.ppText.assign(f.code.size(), ' ');
        std::size_t lineStart = 0;
        bool continuation = false;
        for (std::size_t i = 0; i <= f.code.size(); ++i) {
            if (i == f.code.size() || f.code[i] == '\n') {
                std::size_t firstNonSpace =
                    f.code.find_first_not_of(" \t", lineStart);
                bool pp = continuation ||
                          (firstNonSpace != std::string::npos &&
                           firstNonSpace < i && f.code[firstNonSpace] == '#');
                if (pp) {
                    // A trailing backslash continues the directive; look in
                    // the raw text (the stripped copy preserves lengths).
                    std::size_t back = i;
                    while (back > lineStart &&
                           std::isspace(static_cast<unsigned char>(
                               f.raw[back - 1])))
                        --back;
                    continuation = back > lineStart && f.raw[back - 1] == '\\';
                    for (std::size_t k = lineStart; k < i; ++k) {
                        f.ppText[k] = f.code[k];
                        f.code[k] = ' ';
                    }
                } else {
                    continuation = false;
                }
                lineStart = i + 1;
            }
        }
    }

    /** NOLINT / NOLINTNEXTLINE / SWTIDY-AS / SWTIDY-OPTION from comments. */
    void
    parseCommentDirectives(SourceFile &f)
    {
        std::size_t lineCount = f.lineStarts.size();
        f.nolint.assign(lineCount, {});
        std::istringstream in(f.raw);
        std::string line;
        std::size_t num = 0;
        while (std::getline(in, line)) {
            ++num;
            std::size_t pos;
            if ((pos = line.find("SWTIDY-AS:")) != std::string::npos)
                f.effective = trim(line.substr(pos + 10));
            if ((pos = line.find("SWTIDY-OPTION:")) != std::string::npos) {
                std::string kv = trim(line.substr(pos + 14));
                std::size_t eq = kv.find('=');
                if (eq != std::string::npos &&
                    trim(kv.substr(0, eq)) == "allow-iteration")
                    f.allowIteration.push_back(trim(kv.substr(eq + 1)));
            }
            bool nextLine = false;
            if ((pos = line.find("NOLINTNEXTLINE")) != std::string::npos)
                nextLine = true;
            else
                pos = line.find("NOLINT");
            if (pos == std::string::npos)
                continue;
            std::size_t target = nextLine ? num + 1 : num;
            if (target < 1 || target > lineCount)
                continue;
            std::set<std::string> &supp = f.nolint[target - 1];
            std::size_t open =
                pos + (nextLine ? strlenConst("NOLINTNEXTLINE")
                                : strlenConst("NOLINT"));
            if (open < line.size() && line[open] == '(') {
                std::size_t close = line.find(')', open);
                std::string inner =
                    line.substr(open + 1, close == std::string::npos
                                              ? std::string::npos
                                              : close - open - 1);
                for (const std::string &c : splitTopLevel(inner))
                    supp.insert(trim(c));
            } else {
                supp.insert("*");
            }
        }
    }

    static constexpr std::size_t
    strlenConst(const char *s)
    {
        std::size_t n = 0;
        while (s[n])
            ++n;
        return n;
    }

    // ---- collection -------------------------------------------------------

    void
    collect()
    {
        for (const SourceFile &f : files) {
            collectUnorderedDecls(f);
            collectAliases(f);
            collectStructs(f);
            collectCategoryEnums(f);
            collectRegisterBodies(f);
        }
    }

    /** Angle-bracket depth of @p pos within its statement. */
    static int
    angleDepthInStatement(const std::string &code, std::size_t pos)
    {
        std::size_t start = pos;
        while (start > 0) {
            char c = code[start - 1];
            if (c == ';' || c == '{' || c == '}')
                break;
            --start;
        }
        int depth = 0;
        for (std::size_t i = start; i < pos; ++i) {
            char c = code[i];
            if (c == '<') {
                if (i + 1 < pos && (code[i + 1] == '<' || code[i + 1] == '='))
                    ++i; // operator
                else
                    ++depth;
            } else if (c == '>') {
                if (i > start && code[i - 1] == '-')
                    continue; // ->
                if (i + 1 < pos && code[i + 1] == '=')
                    { ++i; continue; }
                if (depth > 0)
                    --depth;
            }
        }
        return depth;
    }

    void
    collectUnorderedDecls(const SourceFile &f)
    {
        const std::string &code = f.code;
        for (const char *container : kUnorderedNames) {
            std::size_t pos = 0;
            std::string word = container;
            while ((pos = code.find(word, pos)) != std::string::npos) {
                std::size_t here = pos;
                pos += word.size();
                if (!wordAt(code, here, word))
                    continue;
                if (angleDepthInStatement(code, here) != 0)
                    continue; // nested in another template: not the decl type
                std::size_t after = here + word.size();
                std::size_t open = skipSpaces(code, after);
                if (open >= code.size() || code[open] != '<')
                    continue;
                // Match the container's own template argument list.
                int depth = 0;
                std::size_t i = open;
                for (; i < code.size(); ++i) {
                    char c = code[i];
                    if (c == '<')
                        ++depth;
                    else if (c == '>' && --depth == 0)
                        break;
                }
                if (i >= code.size())
                    continue;
                std::size_t p = skipSpaces(code, i + 1);
                while (p < code.size() && (code[p] == '&' || code[p] == '*'))
                    p = skipSpaces(code, p + 1);
                std::size_t nameStart = p;
                while (p < code.size() && identChar(code[p]))
                    ++p;
                if (p == nameStart)
                    continue;
                std::string name = code.substr(nameStart, p - nameStart);
                std::size_t next = skipSpaces(code, p);
                if (next < code.size() &&
                    (code[next] == ';' || code[next] == '=' ||
                     code[next] == ',' || code[next] == ')' ||
                     code[next] == '{')) {
                    unorderedVars.insert(name);
                }
            }
        }
    }

    void
    collectAliases(const SourceFile &f)
    {
        static const std::regex re(
            R"(\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);)");
        auto begin = std::sregex_iterator(f.code.begin(), f.code.end(), re);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            aliases.emplace((*it)[1].str(), trim((*it)[2].str()));
    }

    void
    collectStructs(const SourceFile &f)
    {
        const std::string &code = f.code;
        std::size_t pos = 0;
        while (pos < code.size()) {
            std::size_t sPos = code.find("struct", pos);
            std::size_t cPos = code.find("class", pos);
            std::size_t here = std::min(sPos, cPos);
            if (here == std::string::npos)
                break;
            std::string kw = here == sPos ? "struct" : "class";
            pos = here + kw.size();
            if (!wordAt(code, here, kw))
                continue;
            std::size_t p = skipSpaces(code, here + kw.size());
            std::size_t nameStart = p;
            while (p < code.size() && identChar(code[p]))
                ++p;
            if (p == nameStart)
                continue;
            std::string name = code.substr(nameStart, p - nameStart);
            p = skipSpaces(code, p);
            if (p < code.size() && wordAt(code, p, "final"))
                p = skipSpaces(code, p + 5);
            // Skip a base-clause up to the opening brace.
            if (p < code.size() && code[p] == ':') {
                while (p < code.size() && code[p] != '{' && code[p] != ';')
                    ++p;
            }
            if (p >= code.size() || code[p] != '{')
                continue; // forward declaration or something else
            std::size_t end = matchGroup(code, p);
            if (end == std::string::npos)
                continue;
            StructDef def;
            def.name = name;
            def.file = f.path;
            def.stem = f.stem;
            def.line = f.lineOf(here);
            collectFields(f, code, p + 1, end - 1, def);
            structs.push_back(std::move(def));
        }
    }

    void
    collectFields(const SourceFile &f, const std::string &code,
                  std::size_t begin, std::size_t end, StructDef &def)
    {
        static const std::regex fieldRe(
            R"(^\s*(?:mutable\s+)?([A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?)\s+([A-Za-z_]\w*)\s*(?:\[\s*\d+\s*\])?\s*(?:=[^;]*|\{[^;{}]*\})?;)");
        int depth = 0;
        std::size_t lineStart = begin;
        for (std::size_t i = begin; i <= end; ++i) {
            bool eol = i == end || code[i] == '\n';
            if (eol) {
                if (depth == 0) {
                    std::string line = code.substr(lineStart, i - lineStart);
                    std::smatch m;
                    if (std::regex_search(line, m, fieldRe) &&
                        line.find('(') == std::string::npos) {
                        std::string type = trim(m[1].str());
                        if (type != "return" && type != "using" &&
                            type != "static" && type != "constexpr" &&
                            type != "struct" && type != "class" &&
                            type != "enum" && type != "friend") {
                            Field field;
                            field.type = type;
                            field.name = m[2].str();
                            field.line = f.lineOf(lineStart +
                                                  m.position(2));
                            def.fields.push_back(std::move(field));
                        }
                    }
                }
                lineStart = i + 1;
                continue;
            }
            char c = code[i];
            if (c == '{')
                ++depth;
            else if (c == '}')
                --depth;
            // A '{' on a field line (brace init) closes on the same line,
            // so the depth==0 test at eol still accepts it; member function
            // bodies keep depth > 0 across their lines and are skipped.
        }
    }

    void
    collectCategoryEnums(const SourceFile &f)
    {
        const std::string &code = f.code;
        std::size_t pos = 0;
        while ((pos = code.find("enum", pos)) != std::string::npos) {
            std::size_t here = pos;
            pos += 4;
            if (!wordAt(code, here, "enum"))
                continue;
            std::size_t p = skipSpaces(code, here + 4);
            if (wordAt(code, p, "class"))
                p = skipSpaces(code, p + 5);
            else if (wordAt(code, p, "struct"))
                p = skipSpaces(code, p + 6);
            std::size_t nameStart = p;
            while (p < code.size() && identChar(code[p]))
                ++p;
            if (p == nameStart)
                continue; // anonymous
            std::string name = code.substr(nameStart, p - nameStart);
            if (name.size() < 8 ||
                name.compare(name.size() - 8, 8, "Category") != 0)
                continue;
            p = skipSpaces(code, p);
            if (p < code.size() && code[p] == ':') {
                // Underlying-type clause up to the brace.
                while (p < code.size() && code[p] != '{' && code[p] != ';')
                    ++p;
            }
            if (p >= code.size() || code[p] != '{')
                continue; // forward declaration
            std::size_t end = matchGroup(code, p);
            if (end == std::string::npos)
                continue;
            EnumDef def;
            def.name = name;
            def.file = f.path;
            def.stem = f.stem;
            def.line = f.lineOf(here);
            // Enumerators: the leading identifier of each comma-separated
            // chunk (initializers like `= 3` follow the name).
            std::size_t chunk = p + 1;
            for (std::size_t i = p + 1; i <= end; ++i) {
                if (i != end && code[i] != ',')
                    continue;
                std::size_t e = skipSpaces(code, chunk);
                std::size_t eStart = e;
                while (e < code.size() && identChar(code[e]))
                    ++e;
                if (e > eStart)
                    def.enumerators.push_back(
                        {code.substr(eStart, e - eStart), f.lineOf(eStart)});
                chunk = i + 1;
            }
            if (!def.enumerators.empty())
                categoryEnums.push_back(std::move(def));
        }
    }

    void
    collectRegisterBodies(const SourceFile &f)
    {
        for (const char *fn : {"registerStats", "registerGauges"})
            collectBodiesOf(f, fn, registerBodies);
        // categoryName() switches are the naming half of the registration
        // contract for *Category enums (see checkStatRegistration).
        collectBodiesOf(f, "categoryName", categoryBodies);
    }

    void
    collectBodiesOf(const SourceFile &f, const char *fn,
                    std::map<std::string, std::string> &out)
    {
        const std::string &code = f.code;
        std::size_t pos = 0;
        while ((pos = code.find(fn, pos)) != std::string::npos) {
            std::size_t here = pos;
            pos += strlenConst(fn);
            if (!wordAt(code, here, fn))
                continue;
            std::size_t open = skipSpaces(code, here + strlenConst(fn));
            if (open >= code.size() || code[open] != '(')
                continue;
            std::size_t close = matchGroup(code, open);
            if (close == std::string::npos)
                continue;
            std::size_t p = skipSpaces(code, close);
            // Skip cv-qualifiers / override between ')' and '{'.
            while (p < code.size() && identChar(code[p])) {
                std::size_t w = p;
                while (w < code.size() && identChar(code[w]))
                    ++w;
                p = skipSpaces(code, w);
            }
            if (p >= code.size() || code[p] != '{')
                continue; // declaration only
            std::size_t bodyEnd = matchGroup(code, p);
            if (bodyEnd == std::string::npos)
                continue;
            out[f.stem] += code.substr(p, bodyEnd - p) + "\n";
        }
    }

    /**
     * Looks up the declared type of @p name above @p beforePos in @p f.
     * Returns "" when no plausible declaration is found.
     */
    std::string
    findDeclType(const SourceFile &f, const std::string &name,
                 std::size_t beforePos) const
    {
        const std::string &code = f.code;
        std::size_t searchEnd = std::min(beforePos, code.size());
        std::size_t best = std::string::npos;
        std::size_t pos = 0;
        while ((pos = code.find(name, pos)) != std::string::npos &&
               pos < searchEnd) {
            if (wordAt(code, pos, name))
                best = pos;
            pos += name.size();
        }
        // Walk back from the *latest* plausible mention looking for a
        // declaration-shaped prefix "Type name" on the same statement.
        while (best != std::string::npos) {
            std::size_t typeEnd = best;
            while (typeEnd > 0 && std::isspace(static_cast<unsigned char>(
                                      code[typeEnd - 1])))
                --typeEnd;
            std::size_t typeStart = typeEnd;
            int angle = 0;
            while (typeStart > 0) {
                char c = code[typeStart - 1];
                if (c == '>')
                    ++angle;
                else if (c == '<')
                    --angle;
                else if (angle == 0 && !identChar(c) && c != ':' &&
                         c != '&' && c != '*' && c != ' ' && c != ',')
                    break;
                else if (angle == 0 && c == ',')
                    break;
                --typeStart;
            }
            std::string type =
                trim(code.substr(typeStart, typeEnd - typeStart));
            std::size_t after = skipSpaces(code, best + name.size());
            bool declShaped =
                !type.empty() && type != "auto" && type != "return" &&
                !std::isdigit(static_cast<unsigned char>(type[0])) &&
                after < code.size() &&
                (code[after] == '=' || code[after] == ';' ||
                 code[after] == ',' || code[after] == ')' ||
                 code[after] == '{' || code[after] == '[');
            if (declShaped)
                return type;
            // Try the previous mention.
            std::size_t prev = std::string::npos;
            pos = 0;
            while ((pos = code.find(name, pos)) != std::string::npos &&
                   pos < best) {
                if (wordAt(code, pos, name))
                    prev = pos;
                pos += name.size();
            }
            best = prev;
        }
        return "";
    }

    // ---- checks -----------------------------------------------------------

    bool
    underSrc(const SourceFile &f) const
    {
        return startsWith(f.effective, "src/") ||
               f.effective.find("/src/") != std::string::npos;
    }

    bool
    iterationAllowed(const SourceFile &f) const
    {
        for (const std::string &allow : opts.allowIteration)
            if (f.effective.find(allow) != std::string::npos)
                return true;
        for (const std::string &allow : f.allowIteration)
            if (f.effective.find(allow) != std::string::npos)
                return true;
        return false;
    }

    void
    checkNondeterministicIteration(const SourceFile &f)
    {
        if (!underSrc(f) || iterationAllowed(f))
            return;
        const std::string &code = f.code;
        std::size_t pos = 0;
        while ((pos = code.find("for", pos)) != std::string::npos) {
            std::size_t here = pos;
            pos += 3;
            if (!wordAt(code, here, "for"))
                continue;
            std::size_t open = skipSpaces(code, here + 3);
            if (open >= code.size() || code[open] != '(')
                continue;
            std::size_t close = matchGroup(code, open);
            if (close == std::string::npos)
                continue;
            std::string inner = code.substr(open + 1, close - open - 2);
            std::size_t colon = topLevelColon(inner);
            if (colon != std::string::npos) {
                std::string range = trim(inner.substr(colon + 1));
                std::string base = rangeBaseName(range);
                if (!base.empty() && unorderedVars.count(base)) {
                    report(f, open + 1 + colon, kNondeterministicIteration,
                           "range-for over unordered container '" + base +
                               "'; hash iteration order is nondeterministic "
                               "and breaks the field-identical fingerprint "
                               "contracts — iterate a sorted snapshot "
                               "(sw::sortedKeys) or switch containers");
                }
            } else {
                // Classic iterator loop: for (auto it = m.begin(); ...)
                for (const char *fn : {".begin", ".cbegin"}) {
                    std::size_t b = inner.find(fn);
                    if (b == std::string::npos)
                        continue;
                    std::size_t e = b;
                    while (e > 0 && identChar(inner[e - 1]))
                        --e;
                    std::string base = inner.substr(e, b - e);
                    if (!base.empty() && unorderedVars.count(base)) {
                        report(f, open + 1 + b, kNondeterministicIteration,
                               "iterator loop over unordered container '" +
                                   base +
                                   "'; hash iteration order is "
                                   "nondeterministic — iterate a sorted "
                                   "snapshot (sw::sortedKeys) or switch "
                                   "containers");
                    }
                }
            }
        }
    }

    static std::size_t
    topLevelColon(const std::string &s)
    {
        int round = 0, square = 0, curly = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            char c = s[i];
            if (c == '(') ++round;
            else if (c == ')') --round;
            else if (c == '[') ++square;
            else if (c == ']') --square;
            else if (c == '{') ++curly;
            else if (c == '}') --curly;
            else if (c == ':' && !round && !square && !curly) {
                if (i + 1 < s.size() && s[i + 1] == ':') { ++i; continue; }
                if (i > 0 && s[i - 1] == ':') continue;
                return i;
            }
        }
        return std::string::npos;
    }

    /** Final identifier of a `a.b->c`-shaped range expression, else "". */
    static std::string
    rangeBaseName(std::string range)
    {
        range = trim(range);
        while (!range.empty() &&
               (range.front() == '*' || range.front() == '&'))
            range = trim(range.substr(1));
        while (range.size() >= 2 && range.front() == '(' &&
               range.back() == ')' &&
               matchGroup(range, 0) == range.size())
            range = trim(range.substr(1, range.size() - 2));
        if (range.find('(') != std::string::npos)
            return ""; // call expression; cannot resolve lexically
        std::size_t cut = range.find_last_of(".>");
        std::string last =
            cut == std::string::npos ? range : range.substr(cut + 1);
        last = trim(last);
        for (char c : last)
            if (!identChar(c))
                return "";
        return last;
    }

    static bool
    underAnyDir(const std::string &effective,
                const std::vector<std::string> &dirs)
    {
        for (const std::string &dir : dirs) {
            if (startsWith(effective, dir + "/") ||
                effective.find("/" + dir + "/") != std::string::npos) {
                return true;
            }
        }
        return false;
    }

    void
    checkWallclock(const SourceFile &f)
    {
        if (!underAnyDir(f.effective, opts.simDirs))
            return;
        // The clock half of the check is waived in sanctioned homes
        // (src/prof); the entropy half below never is.
        bool clockAllowed = underAnyDir(f.effective, opts.wallclockAllow);

        auto scan = [&](const std::string &code) {
            // *_clock::now()
            std::size_t pos = 0;
            while (!clockAllowed &&
                   (pos = code.find("_clock", pos)) != std::string::npos) {
                std::size_t here = pos;
                pos += 6;
                std::size_t end = here + 6;
                if (end < code.size() && identChar(code[end]))
                    continue; // part of a longer identifier
                std::size_t p = skipSpaces(code, end);
                if (p + 1 < code.size() && code[p] == ':' &&
                    code[p + 1] == ':') {
                    p = skipSpaces(code, p + 2);
                    if (wordAt(code, p, "now")) {
                        report(f, here, kWallclockInSim,
                               "wall-clock time in simulation code; simulated "
                               "time comes from EventQueue::now() and harness "
                               "timing belongs in src/harness or bench/ (the "
                               "host profiler in src/prof is the sanctioned "
                               "exception)");
                    }
                }
            }
            for (const char *fn : {"rand", "srand"}) {
                pos = 0;
                while ((pos = code.find(fn, pos)) != std::string::npos) {
                    std::size_t here = pos;
                    pos += strlenConst(fn);
                    if (!wordAt(code, here, fn))
                        continue;
                    std::size_t p = skipSpaces(code, here + strlenConst(fn));
                    if (p < code.size() && code[p] == '(') {
                        report(f, here, kWallclockInSim,
                               std::string(fn) +
                                   "() in simulation code; draw from the "
                                   "run's seeded sw::Rng so results are "
                                   "reproducible");
                    }
                }
            }
            pos = 0;
            while ((pos = code.find("random_device", pos)) !=
                   std::string::npos) {
                std::size_t here = pos;
                pos += strlenConst("random_device");
                if (!wordAt(code, here, "random_device"))
                    continue;
                report(f, here, kWallclockInSim,
                       "std::random_device in simulation code; entropy "
                       "breaks record/replay — seed a sw::Rng from the "
                       "config instead");
            }
        };
        // Both the regular code and macro bodies: a #define spelled in a
        // sim file expands wherever it is used, so its clock reads count
        // here.
        scan(f.code);
        scan(f.ppText);
    }

    void
    checkStatRegistration(const SourceFile &f)
    {
        for (const StructDef &def : structs) {
            if (def.file != f.path)
                continue;
            if (def.name.size() < 5 ||
                def.name.compare(def.name.size() - 5, 5, "Stats") != 0)
                continue;
            auto bodies = registerBodies.find(def.stem);
            if (bodies == registerBodies.end())
                continue; // no registerStats/registerGauges visible: skip
            const std::string &corpus = bodies->second;
            for (const Field &field : def.fields) {
                if (!isCounterType(field.type))
                    continue;
                bool referenced = false;
                std::size_t pos = 0;
                while ((pos = corpus.find(field.name, pos)) !=
                       std::string::npos) {
                    if (wordAt(corpus, pos, field.name)) {
                        referenced = true;
                        break;
                    }
                    pos += field.name.size();
                }
                if (!referenced && field.line >= 1 &&
                    field.line <= static_cast<int>(f.lineStarts.size())) {
                    report(f,
                           f.lineStarts[static_cast<std::size_t>(
                               field.line - 1)],
                           kStatRegistration,
                           "counter '" + field.name + "' of " + def.name +
                               " is never registered in registerStats()/"
                               "registerGauges(); it will be invisible to "
                               "the StatRegistry and every metrics dump");
                }
            }
        }

        // Category enums (LedgerCategory and kin): registration is routed
        // through categoryName(), so an enumerator the switch never names
        // — and no registerStats() body touches — silently vanishes from
        // the ledger's stat registration, JSON dump and every exporter.
        for (const EnumDef &def : categoryEnums) {
            if (def.file != f.path)
                continue;
            auto cats = categoryBodies.find(def.stem);
            if (cats == categoryBodies.end())
                continue; // no categoryName() visible: naming is elsewhere
            std::string corpus = cats->second;
            auto reg = registerBodies.find(def.stem);
            if (reg != registerBodies.end())
                corpus += reg->second;
            for (const Enumerator &e : def.enumerators) {
                if (e.name.compare(0, 3, "Num") == 0)
                    continue; // count sentinel, never exported
                bool referenced = false;
                std::size_t pos = 0;
                while ((pos = corpus.find(e.name, pos)) !=
                       std::string::npos) {
                    if (wordAt(corpus, pos, e.name)) {
                        referenced = true;
                        break;
                    }
                    pos += e.name.size();
                }
                if (!referenced && e.line >= 1 &&
                    e.line <= static_cast<int>(f.lineStarts.size())) {
                    report(f,
                           f.lineStarts[static_cast<std::size_t>(
                               e.line - 1)],
                           kStatRegistration,
                           "category '" + e.name + "' of " + def.name +
                               " is never named in categoryName() nor "
                               "referenced from registerStats(); it will "
                               "be missing from the ledger's stat "
                               "registration and every JSON/NDJSON/"
                               "Prometheus export");
                }
            }
        }
    }

    bool
    isCounterType(const std::string &type) const
    {
        static const std::set<std::string> counters = {
            "std::uint64_t", "uint64_t", "std::uint32_t", "uint32_t",
            "std::int64_t",  "int64_t",  "std::int32_t",  "int32_t",
            "std::size_t",   "size_t",   "unsigned",      "int",
            "double",        "float",    "Cycle",         "Histogram",
            "sw::Histogram"};
        if (counters.count(type))
            return true;
        auto it = aliases.find(type);
        return it != aliases.end() && counters.count(trim(it->second));
    }

    void
    checkAuditSideEffect(const SourceFile &f)
    {
        const std::string &code = f.code;
        for (const char *macro : {"SW_AUDIT", "SW_LIFECYCLE"}) {
            std::size_t pos = 0;
            while ((pos = code.find(macro, pos)) != std::string::npos) {
                std::size_t here = pos;
                pos += strlenConst(macro);
                if (!wordAt(code, here, macro))
                    continue;
                std::size_t open = skipSpaces(code,
                                              here + strlenConst(macro));
                if (open >= code.size() || code[open] != '(')
                    continue;
                std::size_t close = matchGroup(code, open);
                if (close == std::string::npos)
                    continue;
                scanSideEffects(f, macro,
                                code.substr(open + 1, close - open - 2),
                                open + 1);
            }
        }
    }

    void
    scanSideEffects(const SourceFile &f, const char *macro,
                    const std::string &args, std::size_t base)
    {
        auto flag = [&](std::size_t off, const std::string &what) {
            report(f, base + off, kAuditSideEffect,
                   what + " inside " + macro +
                       "(...) — the argument is evaluated only in audit "
                       "builds or while an observer is attached, so "
                       "audited/observed and plain runs would diverge");
        };
        for (std::size_t i = 0; i + 1 < args.size(); ++i) {
            if ((args[i] == '+' && args[i + 1] == '+') ||
                (args[i] == '-' && args[i + 1] == '-')) {
                flag(i, std::string("operator '") + args[i] + args[i] + "'");
                ++i;
            }
        }
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (args[i] != '=')
                continue;
            char prev = i > 0 ? args[i - 1] : '\0';
            char next = i + 1 < args.size() ? args[i + 1] : '\0';
            if (next == '=') {
                ++i;
                continue; // ==
            }
            if (prev == '=' || prev == '!')
                continue;
            if (prev == '<' || prev == '>') {
                // <= / >= comparisons vs. <<= / >>= compound assignment.
                if (i >= 2 && args[i - 2] == prev)
                    flag(i, "compound assignment");
                continue;
            }
            if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
                prev == '%' || prev == '&' || prev == '|' || prev == '^') {
                flag(i, "compound assignment");
                continue;
            }
            flag(i, "assignment");
        }
        for (const char *fn : kMutatorNames) {
            std::size_t pos = 0;
            std::string pat = fn;
            while ((pos = args.find(pat, pos)) != std::string::npos) {
                std::size_t here = pos;
                pos += pat.size();
                if (!wordAt(args, here, pat))
                    continue;
                bool member =
                    (here > 0 && args[here - 1] == '.') ||
                    (here > 1 && args[here - 2] == '-' &&
                     args[here - 1] == '>');
                std::size_t p = skipSpaces(args, here + pat.size());
                if (member && p < args.size() && args[p] == '(')
                    flag(here,
                         "call to mutating member '" + pat + "()'");
            }
        }
    }

    void
    checkRawVpnKey(const SourceFile &f)
    {
        // src/vm is the Vpn-level machinery's home: page tables and the
        // address decomposition legitimately traffic in raw VPNs there.
        if (!underSrc(f) ||
            underAnyDir(f.effective, {"src/vm"}))
            return;
        // Member calls whose first argument is the translation key since
        // the TranslationKey migration.
        static const char *const keyApis[] = {
            "lookup",     "probe",        "fill",       "allocPending",
            "hasPending", "clearPending", "invalidate", "translate"};
        const std::string &code = f.code;
        for (const char *fn : keyApis) {
            std::size_t pos = 0;
            while ((pos = code.find(fn, pos)) != std::string::npos) {
                std::size_t here = pos;
                pos += strlenConst(fn);
                if (!wordAt(code, here, fn))
                    continue;
                // Member access only: x.fn( / x->fn(
                bool member =
                    (here > 0 && code[here - 1] == '.') ||
                    (here > 1 && code[here - 2] == '-' &&
                     code[here - 1] == '>');
                if (!member)
                    continue;
                std::size_t open = skipSpaces(code, here + strlenConst(fn));
                if (open >= code.size() || code[open] != '(')
                    continue;
                std::size_t close = matchGroup(code, open);
                if (close == std::string::npos)
                    continue;
                std::vector<std::string> args = splitTopLevel(
                    code.substr(open + 1, close - open - 2));
                if (args.empty())
                    continue;
                std::string first = trim(args[0]);
                // {asid, vpn} braced keys and anything not a plain
                // identifier stay silent: the engine flags only what it
                // can prove is a bare Vpn-typed variable.
                bool ident = !first.empty();
                for (char c : first)
                    if (!identChar(c))
                        ident = false;
                if (!ident)
                    continue;
                std::string type = findDeclType(f, first, here);
                if (type == "Vpn" || type == "sw::Vpn") {
                    report(f, here, kRawVpnKey,
                           "raw Vpn '" + first + "' passed as the key of " +
                               std::string(fn) +
                               "(); translation structures are keyed by "
                               "TranslationKey {asid, vpn} — a bare VPN "
                               "silently means ASID 0 and breaks "
                               "multi-tenant containment (spell the key as "
                               "{asid, " + first + "})");
                }
            }
        }
    }

    // ---- driver -----------------------------------------------------------

    std::vector<Diagnostic>
    run()
    {
        diags.clear();
        unorderedVars.clear();
        aliases.clear();
        structs.clear();
        registerBodies.clear();
        collect();
        for (const SourceFile &f : files) {
            if (checkEnabled(kNondeterministicIteration))
                checkNondeterministicIteration(f);
            if (checkEnabled(kWallclockInSim))
                checkWallclock(f);
            if (checkEnabled(kStatRegistration))
                checkStatRegistration(f);
            if (checkEnabled(kAuditSideEffect))
                checkAuditSideEffect(f);
            if (checkEnabled(kRawVpnKey))
                checkRawVpnKey(f);
        }
        std::sort(diags.begin(), diags.end());
        diags.erase(std::unique(diags.begin(), diags.end(),
                                [](const Diagnostic &a, const Diagnostic &b) {
                                    return a.file == b.file &&
                                           a.line == b.line &&
                                           a.check == b.check &&
                                           a.message == b.message;
                                }),
                    diags.end());
        return diags;
    }
};

Analyzer::Analyzer(Options opts) : impl(new Impl(std::move(opts))) {}

Analyzer::~Analyzer()
{
    delete impl;
}

bool
Analyzer::addFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    impl->addSource(path, buf.str());
    return true;
}

void
Analyzer::addSource(const std::string &path, std::string text)
{
    impl->addSource(path, std::move(text));
}

std::vector<Diagnostic>
Analyzer::run()
{
    return impl->run();
}

} // namespace swtidy
