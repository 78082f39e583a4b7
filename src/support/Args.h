//===-- support/Args.h - Command-line and environment values ----*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strict number parsers every CLI flag and environment variable goes
/// through, and the "--flag VALUE" / "--flag=VALUE" matcher the CLIs
/// share. An unsigned number is base-10 digits that fit in 64 bits: no
/// sign, no blanks, no trailing garbage, not empty, no wrap-around or
/// saturation. A decimal is a finite double in std::from_chars' general
/// format under the same rules: never nan or inf, which would make every
/// comparison against it false.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_SUPPORT_ARGS_H
#define SHARC_SUPPORT_ARGS_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace sharc {

/// Parses \p Text strictly; \p Out is written only on success.
inline bool parseU64(std::string_view Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  uint64_t Value = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value, 10);
  if (Text.empty() || Ec != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

/// Parses \p Text strictly as a finite decimal; \p Out is written only on
/// success.
inline bool parseDecimal(std::string_view Text, double &Out) {
  const char *End = Text.data() + Text.size();
  double Value = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Text.empty() || Ec != std::errc() || Ptr != End || !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

/// The value of flag \p Flag, null when it is missing, parsed by
/// \p Parse; a missing or rejected value is reported on stderr under
/// program \p Prog.
template <typename T>
bool parseFlag(const char *Prog, const char *Flag, const char *Text, T &Out,
               bool (*Parse)(std::string_view, T &), const char *Expects) {
  if (!Text)
    std::fprintf(stderr, "%s: %s needs a value\n", Prog, Flag);
  else if (Parse(Text, Out))
    return true;
  else
    std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", Prog, Flag, Expects,
                 Text);
  return false;
}

inline bool parseU64Flag(const char *Prog, const char *Flag, const char *Text,
                         uint64_t &Out) {
  return parseFlag(Prog, Flag, Text, Out, parseU64, "an unsigned integer");
}

inline bool parseDecimalFlag(const char *Prog, const char *Flag,
                             const char *Text, double &Out) {
  return parseFlag(Prog, Flag, Text, Out, parseDecimal, "a finite number");
}

/// Matches a value-taking flag in either spelling, "--flag VALUE" or
/// "--flag=VALUE". \returns true when Argv[I] is \p Flag; \p Value then
/// points at the flag's argument, or is null when the argument is
/// missing (the caller reports usage). Advances \p I past a separate
/// value argument.
inline bool matchValueFlag(const char *Flag, int Argc, char **Argv, int &I,
                           const char *&Value) {
  const char *Arg = Argv[I];
  size_t Len = std::strlen(Flag);
  if (std::strncmp(Arg, Flag, Len) != 0)
    return false;
  if (Arg[Len] == '=') {
    Value = Arg + Len + 1;
    return true;
  }
  if (Arg[Len] != '\0')
    return false; // a longer flag sharing this prefix
  Value = I + 1 < Argc ? Argv[++I] : nullptr;
  return true;
}

} // namespace sharc

#endif // SHARC_SUPPORT_ARGS_H
