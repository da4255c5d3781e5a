// Shared pieces of the polarx benchmark binary: command-line arguments,
// exact percentiles over raw samples, the result record every workload
// fills, and the span tracer used by traced runs.
//
// The tracer lives in the benchmark, not in the library: spans are
// recorded around the calls the benchmark makes into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace polarx::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (empty = keep them in memory).
  std::string trace_out;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out P]`.
/// Returns false and prints the reason on a malformed command line.
bool ParseArgs(int argc, char** argv, Args* args);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Exact quantile of raw samples (linear interpolation between closest
/// ranks, as numpy's default). `q` in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Speed of the host during a run. The host's speed drifts by up to a
/// third between runs minutes apart (shared physical cores and memory
/// bandwidth), so a fixed kernel that touches no library code is timed at
/// quiet points of the run, and end-to-end times are reported scaled to a
/// host on which that kernel takes kReferenceKernelMs. Row-store and
/// transaction work slows with integer throughput (kCompute: a dependent
/// chain of 10M multiply-adds); column scans slow with memory bandwidth
/// (kBandwidth: two sequential passes over 64 MB).
class HostSpeed {
 public:
  enum class Kernel { kCompute, kBandwidth };
  static constexpr double kReferenceKernelMs = 15.0;

  explicit HostSpeed(Kernel kernel) : kernel_(kernel) {}

  /// Times the kernel once. Call only while the workload's threads idle.
  void Sample();
  /// Reference-host time of a duration measured in this run (throughputs
  /// divide by it).
  double Factor() const { return kReferenceKernelMs / Median(samples_); }
  double KernelMs() const { return Median(samples_); }

 private:
  Kernel kernel_;
  std::vector<uint64_t> buffer_;  // kBandwidth's 64 MB
  std::vector<double> samples_;
};

/// What one workload run reports. `metrics` holds name -> (value, unit).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Workload-specific figures printed for people (stream_s, tpmc, ...);
  /// not part of the JSON result.
  std::map<std::string, std::pair<double, std::string>> detail;
  /// First output mismatch, for the log.
  std::string error;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    detail[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Prints the human-readable metric table and then, as the last line, the
/// JSON result object.
void PrintResult(const Args& args, const RunResult& result);

/// Spans recorded around calls into the library. Each span has a name, a
/// trace id shared by the spans of one request, a parent span index (-1 for
/// a root) and start/end times in nanoseconds on its clock: steady_clock
/// for real work, the simulator's virtual clock for simulated work.
/// Not thread-safe: each benchmark thread records into its own tracer, and
/// spans measured on library worker threads are added after they finish.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t trace_id = 0;
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool virtual_clock = false;
  };

  /// Starts a span now (steady clock); returns its index for End().
  int64_t Begin(const std::string& name, uint64_t trace_id,
                int64_t parent = -1);
  void End(int64_t span);
  /// Records a span whose times were measured elsewhere (worker threads,
  /// virtual time).
  int64_t Add(const std::string& name, uint64_t trace_id, int64_t parent,
              int64_t start_ns, int64_t end_ns, bool virtual_clock = false);

  /// Durations in ms of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Moves `other`'s spans into this tracer (spans of another thread).
  void Append(const Tracer& other);

  /// Writes all spans as one JSON array. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
};

// Workload entry points. Each builds its inputs from `args.seed`, sets up
// several times (setup_s is the median), measures for `args.seconds`, and
// checks every output. With `args.trace` the run mixes untraced and traced
// work; the traced part yields the per-layer metrics and the difference
// between the two is the tracing overhead.
RunResult RunTpch(const Args& args, bool mpp);
RunResult RunOltpXdc(const Args& args);
RunResult RunHtapTpcc(const Args& args);

}  // namespace polarx::perfbench
