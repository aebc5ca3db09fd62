#include "support/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace epic {

/** Reject a flag value: print the message to stderr and exit 2. */
template <typename... Args>
[[noreturn]] static void
badValue(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    std::fprintf(stderr, "%s\n", os.str().c_str());
    std::exit(2);
}

int64_t
parseIntFlag(const char *flag, const char *text, int64_t min, int64_t max)
{
    if (!text || !*text)
        badValue(flag, " requires a numeric value");
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0')
        badValue(flag, ": '", text, "' is not a number");
    if (errno == ERANGE || v < min || v > max)
        badValue(flag, ": ", text, " out of range [", min, ", ", max, "]");
    return v;
}

double
parseFloatFlag(const char *flag, const char *text, double min, double max)
{
    if (!text || !*text)
        badValue(flag, " requires a numeric value");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        badValue(flag, ": '", text, "' is not a number");
    if (errno == ERANGE || !(v >= min && v <= max))
        badValue(flag, ": ", text, " out of range [", min, ", ", max, "]");
    return v;
}

void
usageError(const char *usage, const std::string &msg)
{
    std::fprintf(stderr, "%s\n%s\n", msg.c_str(), usage);
    std::exit(2);
}

} // namespace epic
