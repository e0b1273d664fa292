/**
 * @file
 * In-memory span recorder of the traced benchmark run. Spans are taken
 * around the benchmark's own calls into each library layer (nothing
 * inside the library is instrumented), kept in memory while the run
 * measures, and written out once at the end as Chrome trace-event JSON,
 * which Perfetto (ui.perfetto.dev) and chrome://tracing open.
 *
 * Not thread-safe: the replay records from one thread, and the serve
 * workload adds its client-side spans after each pass has joined.
 */

#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "api/json.hh"

namespace perfbench {

/** One timed call: name, start, end, parent and pass id. */
struct Span
{
    std::string name;
    double start_us = 0.0;  // since the recorder's origin
    double end_us = 0.0;
    int parent = -1;        // index into the recorder's spans, -1 = root
    int pass = 0;
    int tid = 0;            // timeline row in the trace viewer
    /** Extra fields, rendered `"key": value, ...` (may be empty). */
    std::string args;

    double ms() const { return (end_us - start_us) / 1000.0; }
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() : origin_(Clock::now()) {}

    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    /** Open a span nested in the innermost open one. */
    int begin(const std::string& name, int pass)
    {
        Span span;
        span.name = name;
        span.parent = open_.empty() ? -1 : open_.back();
        span.pass = pass;
        span.start_us = nowUs();
        spans_.push_back(std::move(span));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Close the innermost open span, which must be `index`. */
    void end(int index, std::string args = {})
    {
        spans_[index].end_us = nowUs();
        spans_[index].args = std::move(args);
        open_.pop_back();
    }

    /** Record a span whose times were taken elsewhere. */
    int add(Span span)
    {
        spans_.push_back(std::move(span));
        return static_cast<int>(spans_.size()) - 1;
    }

    const std::vector<Span>& spans() const { return spans_; }

    /** Each span's duration minus the time its children cover, ms. */
    std::vector<double> selfMs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].ms();
        for (const Span& span : spans_)
            if (span.parent >= 0)
                self[span.parent] -= span.ms();
        return self;
    }

    /** The whole recording as a Chrome trace-event document. */
    std::string chromeJson() const
    {
        std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out += i == 0 ? "\n" : ",\n";
            out += "{\"name\": " + loas::json::quote(s.name) +
                   ", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
                   std::to_string(s.tid) +
                   ", \"ts\": " + loas::json::num(s.start_us) +
                   ", \"dur\": " + loas::json::num(s.end_us - s.start_us) +
                   ", \"args\": {\"id\": " + std::to_string(i) +
                   ", \"parent\": " + std::to_string(s.parent) +
                   ", \"pass\": " + std::to_string(s.pass) +
                   (s.args.empty() ? "" : ", " + s.args) + "}}";
        }
        out += "\n]}\n";
        return out;
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench
