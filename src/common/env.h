#ifndef VDRIFT_COMMON_ENV_H_
#define VDRIFT_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace vdrift {

// The one reader of the VDRIFT_* environment knobs. For every knob, unset
// and empty mean the same thing: the caller's default applies. A value
// that is set but malformed is a configuration error and never silently
// becomes a default: EnvInt dies naming the knob, its range and the raw
// value.

/// The value of `name`, or "" when unset.
std::string EnvString(const char* name);

/// False when `name` is unset, empty or "0"; true for anything else.
bool EnvFlag(const char* name);

/// `name` as a base-10 integer in [lo, hi], or `fallback` when unset or
/// empty. Trailing characters, overflow and out-of-range values
/// VDRIFT_CHECK-fail.
int64_t EnvInt(const char* name, int64_t lo, int64_t hi, int64_t fallback);

}  // namespace vdrift

#endif  // VDRIFT_COMMON_ENV_H_
