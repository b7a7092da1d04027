// perfbench: the repository benchmark.
//
//   perfbench --workload {gen_batch|fig9_calls|soc_sweep} --seed N
//             --seconds S --trace {0|1} --repo DIR --work DIR
//
// Runs one workload as a closed loop for S seconds of measured time after
// a timed set-up, checks every output, and prints human-readable lines
// (fingerprint, exact determinism counts, every metric with its unit)
// followed by one JSON result line.  --trace 0 reports the end-to-end
// metrics; --trace 1 splits the time into an untraced and a traced phase
// and reports the per-layer metrics.  perfbench/run.py builds this binary
// and supplies --repo and --work.
#include <cstdio>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics in BENCHMARK.json order.  A workload that never enters
// a layer reports 0 for it; perfbench/METHOD.md maps each metric to the
// workload and end-to-end metric it should move.
constexpr MetricDef kPerLayer[] = {
    {"frontend.parse_us", "us"},
    {"frontend.bytes_per_s", "B/s"},
    {"frontend.self_us", "us"},
    {"ir.validate_us", "us"},
    {"ir.self_us", "us"},
    {"codegen.us", "us"},
    {"codegen.modules", "count"},
    {"codegen.cse_hits", "count"},
    {"drivergen.emit_us", "us"},
    {"drivergen.build_call_us", "us"},
    {"drivergen.self_us", "us"},
    {"core.generate_us", "us"},
    {"core.merge_us", "us"},
    {"core.write_us", "us"},
    {"core.files_written", "count"},
    {"core.bytes_written", "B"},
    {"core.self_us", "us"},
    {"support.pool_busy_frac", "frac"},
    {"runtime.assemble_us", "us"},
    {"runtime.run_program_us", "us"},
    {"runtime.call_us", "us"},
    {"runtime.wait_us", "us"},
    {"runtime.self_us", "us"},
    {"rtl.ns_per_cycle", "ns"},
    {"rtl.call_ns_per_cycle", "ns"},
    {"rtl.wait_ns_per_cycle", "ns"},
    {"rtl.sim_cycles_per_s", "1/s"},
    {"rtl.quiescent_frac", "frac"},
    {"rtl.cycles_per_op", "cycles"},
    {"rtl.settles_per_cycle", "count"},
    {"rtl.worklist_pushes_per_cycle", "count"},
    {"rtl.signal_changes_per_cycle", "count"},
    {"rtl.commits_per_cycle", "count"},
    {"bus.transactions_per_call", "count"},
    {"bus.stall_cycles_per_call", "cycles"},
    {"bus.bridge_grants", "count"},
    {"bus.bridge_timeouts", "count"},
    {"sis.violations", "count"},
    {"bench.self_us", "us"},
    {"trace.overhead_frac", "frac"},
};

std::string json_number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";  // NaN / inf
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string metric_json(const char* name, double value, const char* unit) {
  return std::string("\"") + name + "\": {\"value\": " + json_number(value) +
         ", \"unit\": \"" + unit + "\"}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{gen_batch|fig9_calls|soc_sweep} --seed N --seconds S "
               "--trace {0|1} --repo DIR --work DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) return usage("options come in pairs");
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else if (key == "--repo") {
        opt.repo = val;
      } else if (key == "--work") {
        opt.work = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (opt.repo.empty() || opt.work.empty()) {
    return usage("--repo and --work are required");
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  Report rep;
  try {
    fs::create_directories(opt.work);
    if (opt.workload == "gen_batch") {
      // Generation output goes to memory where the process may mount a
      // private tmpfs; otherwise the run is flagged (see the fingerprint).
      mount_private_tmpfs(gen_batch_dir(opt));
      rep = run_gen_batch(opt);
    } else if (opt.workload == "fig9_calls") {
      rep = run_fig9_calls(opt);
    } else if (opt.workload == "soc_sweep") {
      rep = run_soc_sweep(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double rss_mb = peak_rss_mb();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint_json(rep.output_dir).c_str());
  if (!rep.output_dir.empty()) {
    bool mem = false;
    const std::string type = fs_type(rep.output_dir, &mem);
    if (!mem) {
      std::printf("warning: generation output directory is on %s, not "
                  "memory-backed; write times include the filesystem\n",
                  type.c_str());
    }
  }
  std::string counts;
  for (const auto& [k, v] : rep.counts) {
    counts += (counts.empty() ? "" : ", ") + ("\"" + k + "\": \"" + v + "\"");
  }
  std::printf("counts: {%s}\n", counts.c_str());
  for (const std::string& p : rep.problems) {
    std::printf("failure: %s\n", p.c_str());
  }

  const PhaseResult& m = rep.measured;
  const double failed_frac =
      rep.attempted == 0 ? 0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  std::printf("metric ops_per_s = %.6g 1/s (higher is better)\n",
              m.ops_per_s());
  const auto latency_samples =
      static_cast<unsigned long long>(m.latency.count());
  std::printf("metric op_ms_p50 = %.6g ms (lower is better, %llu samples)\n",
              m.latency.quantile_ms(0.5), latency_samples);
  std::printf("metric op_ms_p99 = %.6g ms (lower is better, %llu samples)\n",
              m.latency.quantile_ms(0.99), latency_samples);
  if (rep.sim_cycles >= 0) {
    std::printf("metric sim_cycles_per_s = %.6g 1/s (higher is better)\n",
                rep.sim_cycles / m.timed_s);
  }
  std::printf("metric setup_s = %.6g s (lower is better)\n", rep.setup_s);
  std::printf("metric failed_frac = %.6g frac (lower is better, %llu of "
              "%llu)\n",
              failed_frac, static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  std::printf("metric peak_rss_mb = %.6g MB (lower is better)\n", rss_mb);

  std::string metrics;
  if (!opt.trace) {
    metrics = metric_json("ops_per_s", m.ops_per_s(), "1/s") + ", " +
              metric_json("op_ms_p50", m.latency.quantile_ms(0.5), "ms") +
              ", " +
              metric_json("op_ms_p99", m.latency.quantile_ms(0.99), "ms") +
              ", " + metric_json("setup_s", rep.setup_s, "s") + ", " +
              metric_json("peak_rss_mb", rss_mb, "MB");
  } else {
    for (const MetricDef& d : kPerLayer) {
      auto it = rep.layer.find(d.name);
      const double v = it == rep.layer.end() ? 0 : it->second;
      std::printf("layer %s = %.6g %s\n", d.name, v, d.unit);
      metrics += (metrics.empty() ? "" : ", ") + metric_json(d.name, v, d.unit);
    }
    if (!rep.trace_json.empty()) {
      const fs::path trace_file =
          opt.work / ("trace-" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + ".json");
      write_file(trace_file, rep.trace_json);
      std::printf("trace: %s\n", trace_file.string().c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return 0;
}
