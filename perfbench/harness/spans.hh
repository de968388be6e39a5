/**
 * @file
 * In-memory spans for the traced run. Each span names the layer whose
 * public function it wraps (module names: "store.load", "isa.trace",
 * "sim.run_batch", ...), its interval on one steady clock, and the
 * span that caused it. Spans are recorded from several worker threads
 * and read only after every worker has joined.
 */

#ifndef PF_PERFBENCH_SPANS_HH
#define PF_PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pfbench {

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string layer;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span in the tracer, or -1 for a root. */
    int parent = -1;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children. Children of one parent may
 * overlap (they run on different workers), so the covered part is the
 * length of the union of their intervals, clipped to the parent.
 */
inline std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[size_t(s.parent)].push_back({s.startNs, s.endNs});
    }
    std::vector<std::int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curBegin = 0, curEnd = 0;
        bool open = false;
        for (auto [b, e] : iv) {
            b = std::max(b, spans[i].startNs);
            e = std::min(e, spans[i].endNs);
            if (e <= b)
                continue;
            if (open && b <= curEnd) {
                curEnd = std::max(curEnd, e);
                continue;
            }
            if (open)
                covered += curEnd - curBegin;
            curBegin = b;
            curEnd = e;
            open = true;
        }
        if (open)
            covered += curEnd - curBegin;
        self[i] = (spans[i].endNs - spans[i].startNs) - covered;
    }
    return self;
}

/** Thread-safe span recorder. */
class Tracer
{
  public:
    /** Open a span; returns its index for close() and as a parent. */
    int
    open(std::string layer, int parent)
    {
        std::int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(_mutex);
        _spans.push_back({std::move(layer), t, t, parent});
        return int(_spans.size() - 1);
    }

    void
    close(int id)
    {
        std::int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(_mutex);
        _spans[size_t(id)].endNs = t;
    }

    /** Duration of span @p id in ns (after it closed). */
    std::int64_t
    durationNs(int id) const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        const Span &s = _spans[size_t(id)];
        return s.endNs - s.startNs;
    }

    /** Self time summed per layer, in seconds. */
    std::map<std::string, double>
    selfSecondsByLayer() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        std::vector<std::int64_t> self = selfTimesNs(_spans);
        std::map<std::string, double> out;
        for (size_t i = 0; i < _spans.size(); ++i)
            out[_spans[i].layer] += double(self[i]) * 1e-9;
        return out;
    }

  private:
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string layer, int parent)
        : _tracer(tracer), _id(tracer.open(std::move(layer), parent))
    {}
    ~Scope() { _tracer.close(_id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return _id; }

  private:
    Tracer &_tracer;
    int _id;
};

} // namespace pfbench

#endif // PF_PERFBENCH_SPANS_HH
