#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace expert::util {

/// Error thrown when an EXPERT_REQUIRE precondition or EXPERT_CHECK
/// invariant is violated. A refused precondition reaches the user, so its
/// what() is its message alone; a broken invariant is a bug, and its what()
/// also carries the failing expression and file:line for the report.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

[[noreturn]] inline void invariant_fail(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}

}  // namespace expert::util

/// Precondition check on public API arguments. Always enabled: scheduling
/// decisions feed real money/time trade-offs, so silent corruption is worse
/// than the branch cost. `msg` is what the user reads.
#define EXPERT_REQUIRE(expr, msg)                              \
  do {                                                         \
    if (!(expr)) throw ::expert::util::ContractViolation(msg); \
  } while (false)

/// Internal invariant check.
#define EXPERT_CHECK(expr, msg)                                            \
  do {                                                                     \
    if (!(expr))                                                           \
      ::expert::util::invariant_fail(#expr, __FILE__, __LINE__, (msg));    \
  } while (false)
