//===- support/ParseNumber.h - Strict number parsing ----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the tools and environment knobs read a number from
/// text: the whole string must be one number in range. atoi-style
/// parsing reads "5OO" as 5 and "abc" as 0, which turns a typo into a
/// different run instead of an error.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_PARSENUMBER_H
#define FPINT_SUPPORT_PARSENUMBER_H

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace fpint {
namespace support {

/// Sets \p Out from \p S when all of \p S is one number in [Min, Max],
/// and returns whether it did. Integers are read in \p Base (0 accepts
/// C prefixes, as seeds do: 0x10 is 16). Empty text, surrounding
/// whitespace or other characters, a sign on an unsigned type,
/// overflow and NaN all fail and leave \p Out unchanged.
template <typename T>
bool parseNumber(const char *S, T Min, T Max, T &Out, int Base = 10) {
  if (!S || !*S || std::isspace(static_cast<unsigned char>(*S)))
    return false;
  using Wide = std::conditional_t<
      std::is_floating_point_v<T>, double,
      std::conditional_t<std::is_unsigned_v<T>, unsigned long long,
                         long long>>;
  errno = 0;
  char *End = nullptr;
  Wide V;
  if constexpr (std::is_floating_point_v<T>) {
    V = std::strtod(S, &End);
  } else if constexpr (std::is_unsigned_v<T>) {
    if (*S == '-' || *S == '+')
      return false;
    V = std::strtoull(S, &End, Base);
  } else {
    V = std::strtoll(S, &End, Base);
  }
  if (errno != 0 || End == S || *End != '\0' ||
      !(V >= static_cast<Wide>(Min) && V <= static_cast<Wide>(Max)))
    return false;
  Out = static_cast<T>(V);
  return true;
}

/// parseNumber() for the value \p S of command-line flag \p Flag of
/// tool \p Tool. Anything else than a number in [Min, Max] prints which
/// flag was wrong and what it wants, then exits with status 2.
template <typename T>
T flagNumber(const char *Tool, const char *Flag, const char *S, T Min = 0,
             T Max = std::numeric_limits<T>::max(), int Base = 10) {
  T V{};
  if (parseNumber(S, Min, Max, V, Base))
    return V;
  auto Spell = [](T X) {
    if constexpr (std::is_floating_point_v<T>) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", X);
      return std::string(Buf);
    } else {
      return std::to_string(X);
    }
  };
  std::fprintf(stderr, "%s: bad value '%s' for %s: want a number in [%s, %s]\n",
               Tool, S ? S : "", Flag, Spell(Min).c_str(), Spell(Max).c_str());
  std::exit(2);
}

/// The value of integer knob \p Name given its text \p Text (null or
/// empty when unset): the number when all of \p Text is one in
/// [Min, Max], else \p Default. A value that is set but malformed or
/// out of range prints one warning tagged \p Tag naming the knob, what
/// it wants and the default kept.
template <typename T>
T knobNumber(const char *Tag, const char *Name, const char *Text, T Min,
             T Max, T Default) {
  static_assert(std::is_integral_v<T>, "knobs are integers");
  T V = Default;
  if (Text && *Text && !parseNumber(Text, Min, Max, V))
    std::fprintf(stderr,
                 "[%s] ignoring %s='%s': want an integer in [%lld, %lld]; "
                 "using %lld\n",
                 Tag, Name, Text, static_cast<long long>(Min),
                 static_cast<long long>(Max), static_cast<long long>(Default));
  return V;
}

/// knobNumber() of environment variable \p Name.
template <typename T>
T envNumber(const char *Tag, const char *Name, T Min, T Max, T Default) {
  return knobNumber(Tag, Name, std::getenv(Name), Min, Max, Default);
}

} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_PARSENUMBER_H
