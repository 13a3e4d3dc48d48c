// SWTIDY-AS: src/sim/fixture_wallclock_macro_body.cc
//
// The src/prof allowlist must not leak through macros *defined in sim
// files*: a clock read spelled in a src/sim file still fires even when
// it hides inside a macro body (swtidy sees the token in this file).
// Contrast with SW_PROF_SCOPE, whose body is spelled in
// src/prof/hostprof.hh and therefore allowed.

#include <chrono>
#include <cstdint>

#define FIXTURE_BAD_STAMP()                                                 \
    std::chrono::steady_clock::now().time_since_epoch().count() // FIRE: softwalker-wallclock-in-sim

namespace sw {

inline std::uint64_t
fixtureMacroTimestamp()
{
    return static_cast<std::uint64_t>(FIXTURE_BAD_STAMP());
}

} // namespace sw
