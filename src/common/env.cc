#include "common/env.h"

#include <cerrno>
#include <cstdlib>

#include "common/logging.h"

namespace vdrift {

std::string EnvString(const char* name) {
  // vdrift-lint: allow(no-ambient-nondeterminism): the env-knob chokepoint;
  // every VDRIFT_* knob is read here and nowhere else.
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

bool EnvFlag(const char* name) {
  const std::string value = EnvString(name);
  return !value.empty() && value != "0";
}

int64_t EnvInt(const char* name, int64_t lo, int64_t hi, int64_t fallback) {
  const std::string raw = EnvString(name);
  if (raw.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(raw.c_str(), &end, 10);
  VDRIFT_CHECK(end != raw.c_str() && *end == '\0' && errno == 0 &&
               parsed >= lo && parsed <= hi)
      << name << " must be an integer in [" << lo << ", " << hi
      << "], got '" << raw << "'";
  return static_cast<int64_t>(parsed);
}

}  // namespace vdrift
