/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * The benchmark wraps each call it makes into an EpicLab layer in a
 * span: name (the layer), start, end, parent (the span open when it
 * began) and a task id "workload|config". Spans stay in memory until
 * the pass ends; then selfTimes() derives each layer's self time and
 * the time no span covers, and writeChromeTrace() emits them in the
 * Trace Event Format that Perfetto and chrome://tracing load.
 *
 * The recorder is single-threaded: the traced pass runs at jobs 1, so
 * spans nest strictly. A disabled recorder records nothing, which gives
 * the untraced twin of the same calls for the overhead estimate.
 */
#ifndef EPICLAB_PERFBENCH_SPANS_H
#define EPICLAB_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock time in nanoseconds. */
int64_t nowNs();

/** One recorded span; times are steady-clock nanoseconds. */
struct Span
{
    std::string name; ///< layer, e.g. "compile", "sim.detailed"
    std::string task; ///< "workload|config"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1; ///< index into the recorder's spans, -1 = top level
};

/** Collects nested spans of one single-threaded pass. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string &name, const std::string &task);
    /** Close the span `begin` returned (no-op for -1). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name,
               const std::string &task)
        : rec_(rec), id_(rec.begin(name, task))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Self times per span name over a traced wall interval. */
struct SelfTimes
{
    /// name -> sum over its spans of (duration minus the part of the
    /// span's interval its children cover).
    std::map<std::string, int64_t> self_ns;
    /// name -> number of spans.
    std::map<std::string, int64_t> calls;
    /// Part of [wall_start, wall_end] no top-level span covers.
    int64_t unattributed_ns = 0;
    int64_t wall_ns = 0;

    int64_t selfSum() const;
    /** sum(self) + unattributed == wall, in integer nanoseconds. */
    bool reconciles() const { return selfSum() + unattributed_ns == wall_ns; }
};

/** Derive self times; `spans` must all be closed. */
SelfTimes selfTimes(const std::vector<Span> &spans, int64_t wall_start_ns,
                    int64_t wall_end_ns);

/**
 * Write the spans as Chrome trace-event "X" events, timestamps in
 * microseconds (nanosecond resolution) relative to `origin_ns`.
 * Returns false if the file cannot be written.
 */
bool writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                      int64_t origin_ns, const std::string &process_name);

} // namespace perfbench

#endif // EPICLAB_PERFBENCH_SPANS_H
