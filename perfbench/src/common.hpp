// Shared pieces of the repository benchmark: options, the per-run report,
// latency statistics, the span-based layer attribution and the machine
// fingerprint.  Each workload (gen_batch.cpp, fig9_calls.cpp,
// soc_sweep.cpp) drives the library through its public entry points and
// fills one Report; main.cpp prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "host.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace telemetry = splice::support::telemetry;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path repo;  ///< checkout root: specs/corpus and tests/golden live here
  fs::path work;  ///< scratch directory inside the checkout
};

/// Order-sensitive 64-bit digest of a result stream (bytes and numbers).
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Per-op wall-clock latencies of one measured phase.  Keeps a uniform
/// random sample of at most kKeep of them (Algorithm R, fixed seed) in a
/// buffer filled in up front, so the benchmark's own memory does not grow
/// with the op count and peak_rss_mb stays a property of the program.
class Latencies {
 public:
  static constexpr std::size_t kKeep = std::size_t{1} << 18;

  Latencies() : kept_(kKeep) {}
  void add(double ns);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile of the kept sample, in milliseconds.
  [[nodiscard]] double quantile_ms(double q) const;
  /// Sum over every op, not just the kept ones.
  [[nodiscard]] double sum_ns() const { return sum_ns_; }

 private:
  std::vector<double> kept_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0;
  std::uint64_t rng_ = 0x5eed;
};

[[nodiscard]] double median(std::vector<double> v);

/// One closed-loop measurement phase; the workloads' measure() functions
/// add to it.
struct PhaseResult {
  double timed_s = 0;  ///< wall time spent inside measured chunks
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  Latencies latency;

  [[nodiscard]] double ops_per_s() const {
    return timed_s > 0 ? static_cast<double>(ops) / timed_s : 0;
  }
};

/// A traced run alternates untraced and traced slices of this length, so
/// both halves see the same machine and their ratio is the tracing cost.
inline constexpr double kSliceSeconds = 0.5;

/// Alternate `measure(slice_seconds, traced, phase)` calls, untraced ones
/// adding to `plain` and traced ones to `traced`, until the two phases hold
/// `seconds` of measured time together.
template <typename Measure>
void interleave(double seconds, PhaseResult& plain, PhaseResult& traced,
                Measure&& measure) {
  while (plain.timed_s + traced.timed_s < seconds) {
    measure(kSliceSeconds, false, plain);
    measure(kSliceSeconds, true, traced);
  }
}

/// Layer attribution from benchmark-owned spans.  Spans are opened with
/// category "bench" around the public call into a layer and named
/// "<layer>.<call>" (layer = the src/ module name).  Program-internal spans
/// (other categories) nest inside them and count towards the enclosing
/// benchmark span.  A span's self time is its duration minus the union of
/// its direct benchmark-span children.
class LayerTrace {
 public:
  /// Fold every finished span of `tracer` into the totals.
  void harvest(const telemetry::Tracer& tracer);

  /// Summed duration (µs) and count of spans named `name`.
  [[nodiscard]] double total_us(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// Summed self time (µs) of every span of `layer`.
  [[nodiscard]] double self_us(const std::string& layer) const;
  /// Sum of a span argument over spans named `name`.
  [[nodiscard]] std::uint64_t arg_sum(const std::string& name,
                                      const std::string& arg) const;

 private:
  std::map<std::string, double> total_ns_;
  std::map<std::string, std::uint64_t> count_;
  std::map<std::string, double> self_ns_;
  std::map<std::string, std::uint64_t> arg_sum_;
};

/// Installs a fresh process-wide tracer for one traced chunk; finish()
/// uninstalls it and hands the spans to a LayerTrace.  The first chunk of a
/// run keeps its Chrome trace JSON for the trace file.
class TraceChunk {
 public:
  TraceChunk();
  ~TraceChunk();
  TraceChunk(const TraceChunk&) = delete;
  TraceChunk& operator=(const TraceChunk&) = delete;

  void finish(LayerTrace& into, std::string* chrome_json);

 private:
  std::unique_ptr<telemetry::Tracer> tracer_;
  bool installed_ = false;
};

/// Everything one run reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first failure messages

  double setup_s = 0;
  PhaseResult measured;  ///< untraced phase: the end-to-end numbers
  /// Simulated bus cycles in the untraced phase; < 0 for workloads that do
  /// not simulate.
  double sim_cycles = -1;

  /// Per-layer values (traced runs); absent names print as 0.
  std::map<std::string, double> layer;
  /// Exact, deterministic counts of the evidence pass (name, value).
  std::vector<std::pair<std::string, std::string>> counts;
  /// The directory generated files went to (fingerprinted), if any.
  fs::path output_dir;
  std::string trace_json;

  void fail(const std::string& why);
  /// Fold a phase's op counts into attempted/failed.
  void account(const PhaseResult& phase);
};

/// Median of `reps` timed runs of `setup`, each after an untimed `reset`
/// that drops the previous run's state; the last run's state is kept.
template <typename Reset, typename Setup>
double median_setup_s(unsigned reps, Reset&& reset, Setup&& setup) {
  std::vector<double> s;
  for (unsigned r = 0; r < reps; ++r) {
    reset();
    const auto t0 = Clock::now();
    setup();
    s.push_back(ns_between(t0, Clock::now()) * 1e-9);
  }
  return median(std::move(s));
}

/// Sum of kernel counters and histograms (counts and buckets) into `acc`.
void add_snapshot(telemetry::MetricsSnapshot& acc,
                  const telemetry::MetricsSnapshot& s);
[[nodiscard]] double counter_of(const telemetry::MetricsSnapshot& snap,
                                const char* name);

[[nodiscard]] std::string read_file(const fs::path& path);
void write_file(const fs::path& path, std::string_view bytes);

/// "nproc, CPU model, compiler, build type, output filesystem" as JSON.
[[nodiscard]] std::string fingerprint_json(const fs::path& output_dir);
[[nodiscard]] double peak_rss_mb();

/// gen_batch's input and output directory.
[[nodiscard]] fs::path gen_batch_dir(const Options& opt);
Report run_gen_batch(const Options& opt);
Report run_fig9_calls(const Options& opt);
Report run_soc_sweep(const Options& opt);

}  // namespace perfbench
