// Shared command-line knobs for the benchmarks (E3-E5):
//
//   --group_commit=off|on   leader-side redo group commit (default: on)
//   --pipeline=N            max in-flight AppendFrames per follower; 1 means
//                           stop-and-wait (default: 0 = library default)
//   --runtime_filters=on|off  bloom/min-max runtime-filter pushdown in the
//                           AP path (default: on; E4 ablation knob)
//   --reps=N                timed repetitions per measurement (median
//                           reported); 0 = bench default
//   --json=PATH             write machine-readable results to PATH
//   --smoke                 shrink every sweep to a ~2s deterministic run
//                           (CI crash/empty-JSON canary, not a measurement)
//
// Header-only so each bench binary stays self-contained.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace polarx {

struct BenchFlags {
  bool group_commit = true;
  /// True when --group_commit was passed explicitly: the bench then runs
  /// only that configuration instead of the full ablation grid.
  bool group_commit_set = false;
  /// 0: leave PaxosConfig defaults untouched. N>=1: at most N outstanding
  /// frames per follower (PaxosConfig::max_inflight); 1 is stop-and-wait.
  int pipeline = 0;
  /// Runtime-filter pushdown for the AP benches (ScanOptions default: on).
  bool runtime_filters = true;
  bool runtime_filters_set = false;
  /// Timed repetitions per measurement (median reported); 0 = bench default.
  int reps = 0;
  std::string json_path;
  bool smoke = false;

  /// The user pinned a specific write-path configuration on the command
  /// line (vs asking for the whole ablation grid).
  bool single_config() const { return group_commit_set || pipeline > 0; }
};

inline BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags f;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value_of = [&a](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--group_commit=")) {
      if (std::strcmp(v, "on") != 0 && std::strcmp(v, "off") != 0) {
        std::fprintf(stderr, "--group_commit takes on|off, got '%s'\n", v);
        std::exit(2);
      }
      f.group_commit = std::strcmp(v, "on") == 0;
      f.group_commit_set = true;
    } else if (const char* v = value_of("--pipeline=")) {
      f.pipeline = std::atoi(v);
      if (f.pipeline < 1) {
        std::fprintf(stderr, "--pipeline takes an integer >= 1\n");
        std::exit(2);
      }
    } else if (const char* v = value_of("--runtime_filters=")) {
      if (std::strcmp(v, "on") != 0 && std::strcmp(v, "off") != 0) {
        std::fprintf(stderr, "--runtime_filters takes on|off, got '%s'\n", v);
        std::exit(2);
      }
      f.runtime_filters = std::strcmp(v, "on") == 0;
      f.runtime_filters_set = true;
    } else if (const char* v = value_of("--reps=")) {
      f.reps = std::atoi(v);
      if (f.reps < 1) {
        std::fprintf(stderr, "--reps takes an integer >= 1\n");
        std::exit(2);
      }
    } else if (const char* v = value_of("--json=")) {
      f.json_path = v;
    } else if (a == "--smoke") {
      f.smoke = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\nknown: --group_commit=on|off "
                   "--pipeline=N --runtime_filters=on|off --reps=N "
                   "--json=PATH --smoke\n",
                   a.c_str());
      std::exit(2);
    }
  }
  return f;
}

/// Writes `json` to flags.json_path (creating parent directories), or does
/// nothing when no --json was given. Exits non-zero on I/O failure so CI
/// smoke runs catch an unwritable output directory.
inline void WriteBenchJson(const BenchFlags& flags, const std::string& json) {
  if (flags.json_path.empty()) return;
  std::filesystem::path p(flags.json_path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(p);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
    std::exit(1);
  }
  out << json;
  if (!out.good()) std::exit(1);
  std::printf("wrote %s\n", flags.json_path.c_str());
}

}  // namespace polarx
