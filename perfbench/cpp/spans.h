/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is (name, start, end, parent) on the host steady clock,
 * recorded around each public call the benchmark makes into a layer.
 * Spans stay in memory until the run ends; then the recorder prints a
 * self-time table (a span's duration minus the part its children
 * cover) and writes the raw spans as JSON. A null recorder makes every
 * Span a no-op, which is how the end-to-end runs stay untraced.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <time.h>

namespace ndpb {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time this process has used so far (all threads, user and
 *  system). Unlike the steady clock it does not advance while the
 *  process waits for a CPU, so time-sharing with other work on the
 *  host does not show in it. */
inline int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

class SpanRecorder
{
  public:
    struct Record
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
    };

    int
    open(const char *name)
    {
        records_.push_back({name, nowNs(), 0, open_.empty() ? -1
                                                            : open_.back()});
        open_.push_back(static_cast<int>(records_.size()) - 1);
        return open_.back();
    }

    void
    close(int id)
    {
        records_[static_cast<size_t>(id)].endNs = nowNs();
        open_.pop_back();
    }

    const std::vector<Record> &records() const { return records_; }

    /** Per-name count, total and self time, sorted by self time. */
    void
    printTable(std::FILE *out, const std::string &title) const
    {
        struct Row
        {
            uint64_t count = 0;
            int64_t totalNs = 0;
            int64_t selfNs = 0;
        };
        std::vector<int64_t> childNs(records_.size(), 0);
        for (const Record &r : records_)
            if (r.parent >= 0)
                childNs[static_cast<size_t>(r.parent)] +=
                    r.endNs - r.startNs;
        std::map<std::string, Row> rows;
        int64_t rootNs = 0;
        for (size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            Row &row = rows[r.name];
            ++row.count;
            row.totalNs += r.endNs - r.startNs;
            row.selfNs += r.endNs - r.startNs - childNs[i];
            if (r.parent < 0)
                rootNs += r.endNs - r.startNs;
        }
        std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                        rows.end());
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const auto &a, const auto &b) {
                             return a.second.selfNs > b.second.selfNs;
                         });
        std::fprintf(out, "\n%s: self time by span (root %.3f s)\n",
                     title.c_str(), static_cast<double>(rootNs) * 1e-9);
        std::fprintf(out, "  %-34s %8s %12s %12s %7s\n", "span", "count",
                     "total (s)", "self (s)", "self %");
        for (const auto &[name, row] : sorted)
            std::fprintf(out, "  %-34s %8llu %12.4f %12.4f %6.1f%%\n",
                         name.c_str(),
                         static_cast<unsigned long long>(row.count),
                         static_cast<double>(row.totalNs) * 1e-9,
                         static_cast<double>(row.selfNs) * 1e-9,
                         rootNs > 0 ? 100.0 *
                                          static_cast<double>(row.selfNs) /
                                          static_cast<double>(rootNs)
                                    : 0.0);
    }

    /** Raw spans as a JSON array (times relative to the first span). */
    void
    writeJson(std::FILE *out) const
    {
        const int64_t t0 = records_.empty() ? 0 : records_.front().startNs;
        std::fprintf(out, "[\n");
        for (size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            std::fprintf(out,
                         "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                         "%lld, \"end_ns\": %lld, \"parent\": %d}%s\n",
                         i, r.name.c_str(),
                         static_cast<long long>(r.startNs - t0),
                         static_cast<long long>(r.endNs - t0), r.parent,
                         i + 1 < records_.size() ? "," : "");
        }
        std::fprintf(out, "]\n");
    }

  private:
    std::vector<Record> records_;
    /** Stack of open span ids (the parent of the next span). */
    std::vector<int> open_;
};

/** RAII span; a no-op when the recorder is null. */
class Span
{
  public:
    Span(SpanRecorder *rec, const char *name)
        : rec_(rec), id_(rec ? rec->open(name) : -1)
    {}
    ~Span()
    {
        if (rec_)
            rec_->close(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

} // namespace ndpb
