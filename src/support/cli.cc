#include "support/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "support/logging.h"

namespace epic {

int64_t
parseIntFlag(const char *flag, const char *text, int64_t min, int64_t max)
{
    if (!text || !*text)
        epic_fatal(flag, " requires a numeric value");
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0')
        epic_fatal(flag, ": '", text, "' is not a number");
    if (errno == ERANGE || v < min || v > max)
        epic_fatal(flag, ": ", text, " out of range [", min, ", ", max,
                   "]");
    return v;
}

double
parseFloatFlag(const char *flag, const char *text, double min, double max)
{
    if (!text || !*text)
        epic_fatal(flag, " requires a numeric value");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        epic_fatal(flag, ": '", text, "' is not a number");
    if (errno == ERANGE || !(v >= min && v <= max))
        epic_fatal(flag, ": ", text, " out of range [", min, ", ", max,
                   "]");
    return v;
}

void
usageError(const char *usage, const std::string &msg)
{
    std::fprintf(stderr, "%s\n%s\n", msg.c_str(), usage);
    std::exit(2);
}

} // namespace epic
