#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanRecorder::begin(const std::string &name, const std::string &task)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.task = task;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    // Stamp last so the bookkeeping above is not charged to the span.
    spans_[id].start_ns = nowNs();
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    spans_[id].end_ns = nowNs();
    open_.pop_back(); // ScopedSpan closes spans in LIFO order
}

int64_t
SelfTimes::selfSum() const
{
    int64_t sum = 0;
    for (const auto &[name, ns] : self_ns)
        sum += ns;
    return sum;
}

namespace {

/** Length of the union of `iv` clipped to [lo, hi]. */
int64_t
coveredLength(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
              int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

} // namespace

SelfTimes
selfTimes(const std::vector<Span> &spans, int64_t wall_start_ns,
          int64_t wall_end_ns)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    std::vector<std::pair<int64_t, int64_t>> top;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[s.parent].push_back({s.start_ns, s.end_ns});
        else
            top.push_back({s.start_ns, s.end_ns});
    }

    SelfTimes out;
    out.wall_ns = wall_end_ns - wall_start_ns;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const int64_t dur = s.end_ns - s.start_ns;
        out.self_ns[s.name] +=
            dur - coveredLength(children[i], s.start_ns, s.end_ns);
        out.calls[s.name]++;
    }
    out.unattributed_ns =
        out.wall_ns - coveredLength(top, wall_start_ns, wall_end_ns);
    return out;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 int64_t origin_ns, const std::string &process_name)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Integer nanoseconds printed as microseconds with three decimals,
    // so a reader can recover every timestamp exactly.
    auto us = [](int64_t ns) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld.%03lld",
                      static_cast<long long>(ns / 1000),
                      static_cast<long long>(ns % 1000));
        return std::string(buf);
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":1,\"args\":{\"name\":\"%s\"}}",
                 process_name.c_str());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"task\":\"%s\"}}",
                     s.name.c_str(), s.name.c_str(),
                     us(s.start_ns - origin_ns).c_str(),
                     us(s.end_ns - s.start_ns).c_str(), i, s.parent,
                     s.task.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
