//===-- support/Args.h - Command-line and environment values ----*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one strict unsigned parser every CLI flag and environment variable
/// goes through, and the "--flag VALUE" / "--flag=VALUE" matcher the CLIs
/// share. A number is base-10 digits that fit in 64 bits: no sign, no
/// blanks, no trailing garbage, not empty, no wrap-around or saturation.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_SUPPORT_ARGS_H
#define SHARC_SUPPORT_ARGS_H

#include <charconv>
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

/// parseU64 for the value of flag \p Flag, null when it is missing; a
/// missing or rejected value is reported on stderr under program \p Prog.
inline bool parseU64Flag(const char *Prog, const char *Flag, const char *Text,
                         uint64_t &Out) {
  if (!Text)
    std::fprintf(stderr, "%s: %s needs a value\n", Prog, Flag);
  else if (parseU64(Text, Out))
    return true;
  else
    std::fprintf(stderr, "%s: %s expects an unsigned integer, got '%s'\n",
                 Prog, Flag, Text);
  return false;
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
