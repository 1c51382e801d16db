#pragma once
// Error handling: pfsem uses exceptions for programming errors at module
// boundaries (bad arguments, protocol misuse) and status codes for simulated
// I/O errors that are part of the modelled behaviour (e.g. ENOENT from the
// simulated PFS), mirroring how a real tracing/analysis stack distinguishes
// "our bug" from "the traced application saw an error".

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pfsem {

class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throw pfsem::Error carrying `msg`, prefixed with the caller's file:line.
[[noreturn]] inline void fail(
    std::string_view msg,
    std::source_location loc = std::source_location::current()) {
  throw Error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
              ": " + std::string(msg));
}

/// Throw pfsem::Error if `cond` is false. Used for API-contract checks that
/// must hold in release builds too (unlike assert). A literal message binds
/// to this overload and is only turned into a string when the check fails,
/// so hot-path checks cost one branch.
inline void require(bool cond, const char* msg,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) fail(msg, loc);
}

inline void require(bool cond, const std::string& msg,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) fail(msg, loc);
}

}  // namespace pfsem
