// symcex-bench -- in-memory spans around the calls the benchmark makes into
// each layer.  Spans are kept in memory, written once at exit as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing), and reduced to
// self time per span for the per-layer figures.  A disabled tracer records
// nothing and its Span guards cost one branch, which is how the untraced
// runs measure.

#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace symcex::bench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    const char* name;
    std::uint64_t job;
    double start_us;
    double end_us;
    int parent;  ///< index of the enclosing span, -1 at top level
  };

  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span; returns its index, or -1 when disabled.
  int begin(const char* name, std::uint64_t job) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    records_.push_back({name, job, now_us(), 0.0, parent});
    open_.push_back(static_cast<int>(records_.size() - 1));
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    records_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  /// RAII guard for one span.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t job)
        : tracer_(tracer), id_(tracer.begin(name, job)) {}
    ~Span() { tracer_.end(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Self time of each record, in milliseconds: its duration minus the part
  /// its direct children cover (children never overlap, since the benchmark
  /// is single-threaded on its own side).
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<double> out(records_.size(), 0.0);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out[i] += (r.end_us - r.start_us) / 1000.0;
      if (r.parent >= 0) {
        out[static_cast<std::size_t>(r.parent)] -=
            (r.end_us - r.start_us) / 1000.0;
      }
    }
    return out;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, the job
  /// id and parent index as args.
  void write_chrome(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (i != 0) os << ",\n";
      os << "{\"name\":\"" << r.name << "\",\"cat\":\"symcex\",\"ph\":\"X\","
         << "\"pid\":1,\"tid\":1,\"ts\":" << r.start_us
         << ",\"dur\":" << (r.end_us - r.start_us) << ",\"args\":{\"job\":"
         << r.job << ",\"parent\":" << r.parent << "}}";
    }
    os << "]}\n";
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace symcex::bench
