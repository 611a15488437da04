// Fatal runtime check macros for simulator invariants.
//
// Two families:
//
//   HIB_CHECK / HIB_CHECK_EQ / ... : always on, in every build type.  Use for
//       cheap preconditions whose violation means the simulation is garbage.
//   HIB_DCHECK / HIB_DCHECK_EQ / ...: compiled only when HIB_VALIDATE is
//       nonzero (CMake turns it on for every build type except Release /
//       MinSizeRel).  Use for per-event invariants that are too hot to keep
//       in optimized production runs.
//
// Both support trailing stream context and print expression, file:line and
// (for the _OP forms) the two operand values before aborting:
//
//   HIB_CHECK(depth >= 0) << "disk " << id;
//   HIB_DCHECK_GE(now, last_) << "non-monotonic dispatch";
//
// Failures abort() after writing to stderr, so GTest death tests can match
// the message.  Operands of the _OP forms are evaluated twice on failure
// (once for the test, once for the message); keep them side-effect free.
#ifndef HIBERNATOR_SRC_UTIL_CHECK_H_
#define HIBERNATOR_SRC_UTIL_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

#ifndef HIB_VALIDATE
#define HIB_VALIDATE 0
#endif

namespace hib {
namespace internal {

// Accumulates the failure message; aborts in the destructor so that trailing
// `<< context` operands run first.
class CheckFailer {
 public:
  CheckFailer(const char* file, int line, const char* expr) {
    stream_ << "HIB_CHECK failed: " << expr << " @ " << file << ":" << line << " ";
  }

  [[noreturn]] ~CheckFailer() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Swallows `<< context` operands of compiled-out HIB_DCHECKs.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace hib

// The for-loop runs the failure statement exactly once when `cond` is false;
// the CheckFailer temporary aborts when the full statement (including any
// trailing <<) finishes.
#define HIB_CHECK(cond)                                                     \
  for (bool hib_check_ok_ = static_cast<bool>(cond); !hib_check_ok_;        \
       hib_check_ok_ = true)                                                \
  ::hib::internal::CheckFailer(__FILE__, __LINE__, #cond).stream()

#define HIB_CHECK_OP_(a, b, op)                                             \
  for (bool hib_check_ok_ = static_cast<bool>((a)op(b)); !hib_check_ok_;    \
       hib_check_ok_ = true)                                                \
  ::hib::internal::CheckFailer(__FILE__, __LINE__, #a " " #op " " #b).stream() \
      << "(" << (a) << " vs " << (b) << ") "

#define HIB_CHECK_EQ(a, b) HIB_CHECK_OP_(a, b, ==)
#define HIB_CHECK_NE(a, b) HIB_CHECK_OP_(a, b, !=)
#define HIB_CHECK_GE(a, b) HIB_CHECK_OP_(a, b, >=)
#define HIB_CHECK_GT(a, b) HIB_CHECK_OP_(a, b, >)
#define HIB_CHECK_LE(a, b) HIB_CHECK_OP_(a, b, <=)
#define HIB_CHECK_LT(a, b) HIB_CHECK_OP_(a, b, <)

#if HIB_VALIDATE

#define HIB_DCHECK(cond) HIB_CHECK(cond)
#define HIB_DCHECK_EQ(a, b) HIB_CHECK_EQ(a, b)
#define HIB_DCHECK_NE(a, b) HIB_CHECK_NE(a, b)
#define HIB_DCHECK_GE(a, b) HIB_CHECK_GE(a, b)
#define HIB_DCHECK_GT(a, b) HIB_CHECK_GT(a, b)
#define HIB_DCHECK_LE(a, b) HIB_CHECK_LE(a, b)
#define HIB_DCHECK_LT(a, b) HIB_CHECK_LT(a, b)

#else  // !HIB_VALIDATE

// `false && (cond)` keeps the operands referenced (no -Wunused warnings for
// validation-only locals) without evaluating them.
#define HIB_DCHECK_OFF_(cond) \
  while (false && static_cast<bool>(cond)) ::hib::internal::NullStream()

#define HIB_DCHECK(cond) HIB_DCHECK_OFF_(cond)
#define HIB_DCHECK_EQ(a, b) HIB_DCHECK_OFF_((a) == (b))
#define HIB_DCHECK_NE(a, b) HIB_DCHECK_OFF_((a) != (b))
#define HIB_DCHECK_GE(a, b) HIB_DCHECK_OFF_((a) >= (b))
#define HIB_DCHECK_GT(a, b) HIB_DCHECK_OFF_((a) > (b))
#define HIB_DCHECK_LE(a, b) HIB_DCHECK_OFF_((a) <= (b))
#define HIB_DCHECK_LT(a, b) HIB_DCHECK_OFF_((a) < (b))

#endif  // HIB_VALIDATE

#endif  // HIBERNATOR_SRC_UTIL_CHECK_H_
