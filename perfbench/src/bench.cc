#include "perfbench/src/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace polarx::perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad number for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr, "need --workload and --seconds > 0\n");
    return false;
  }
  return true;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * double(samples.size() - 1);
  size_t lo = size_t(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - double(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void PrintResult(const Args& args, const RunResult& result) {
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace ? 1 : 0);
  for (const auto* table : {&result.detail, &result.metrics}) {
    for (const auto& [name, vu] : *table) {
      std::printf("#   %-36s %18.6f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  }
  if (!result.correct) {
    std::printf("# OUTPUT CHECK FAILED: %s\n", result.error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              (unsigned long long)result.attempted,
              (unsigned long long)result.failed);
  bool first = true;
  for (const auto& [name, vu] : result.metrics) {
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void HostSpeed::Sample() {
  if (kernel_ == Kernel::kBandwidth && buffer_.empty()) {
    buffer_.assign(size_t(1) << 23, 3);
  }
  Clock::time_point start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  if (kernel_ == Kernel::kCompute) {
    for (int i = 0; i < 10'000'000; ++i) {
      x = x * 6364136223846793005ULL + (x >> 29);
    }
  } else {
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t w : buffer_) x += w;
    }
  }
  samples_.push_back(MsBetween(start, Clock::now()));
  // Keeps the work observable so it is not folded away.
  if (x == 42) std::fprintf(stderr, "host kernel %llu\n",
                             (unsigned long long)x);
}

int64_t Tracer::Begin(const std::string& name, uint64_t trace_id,
                      int64_t parent) {
  int64_t now = NowNs();
  return Add(name, trace_id, parent, now, now);
}

void Tracer::End(int64_t span) { spans_[size_t(span)].end_ns = NowNs(); }

int64_t Tracer::Add(const std::string& name, uint64_t trace_id,
                    int64_t parent, int64_t start_ns, int64_t end_ns,
                    bool virtual_clock) {
  spans_.push_back({name, trace_id, parent, start_ns, end_ns, virtual_clock});
  return int64_t(spans_.size()) - 1;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(double(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

void Tracer::Append(const Tracer& other) {
  int64_t offset = int64_t(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"trace\": %llu, "
                 "\"parent\": %lld, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"clock\": \"%s\"}%s\n",
                 i, s.name.c_str(), (unsigned long long)s.trace_id,
                 (long long)s.parent, (long long)s.start_ns,
                 (long long)s.end_ns, s.virtual_clock ? "virtual" : "steady",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace polarx::perfbench
