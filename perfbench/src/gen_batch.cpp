// gen_batch: spec file on disk -> Engine::generate -> write_to, on a
// 3-worker pool (`splice --jobs 3`, artifact cache off).  Inputs are seeded
// SpecGen specs over all five buses and both HDLs, each with its own
// %device_name, plus the specs/corpus files in both HDLs; the corpus
// outputs are byte-compared with tests/golden on disk after the run.
#include <algorithm>
#include <deque>

#include "common.hpp"
#include "core/splice.hpp"
#include "frontend/parser.hpp"
#include "support/job_pool.hpp"
#include "testing/rng.hpp"
#include "testing/spec_gen.hpp"

namespace perfbench {
namespace {

using splice::testing::splitmix64;

constexpr std::size_t kGenSpecs = 2000;
// Three, not one per CPU: four busy workers drew heavy steal time from the
// host of a 4-vCPU VM and made the op latency tail jump between runs.
constexpr unsigned kWorkers = 3;
constexpr unsigned kSetupReps = 3;

struct Golden {
  std::map<std::string, std::string> files;  ///< hardware file -> bytes
};

struct Input {
  fs::path spec;      ///< the file an op reads
  fs::path out_root;  ///< write_to() target
  const Golden* golden = nullptr;
  // Recorded by the set-up pass: where the op's files land.
  std::string device;
  std::vector<std::string> hardware;
  std::vector<std::string> files;
};

struct State {
  std::deque<Golden> goldens;
  std::vector<Input> inputs;
  std::unique_ptr<splice::support::JobPool> pool;
};

/// What one traced op wrote.
struct OpOutput {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};

/// One op, untraced: read the spec file, generate, write.  Returns an
/// error message, empty on success.
std::string run_op(const splice::Engine& engine, Input& in, bool record) {
  const std::string text = read_file(in.spec);
  splice::DiagnosticEngine diags;
  auto artifacts = engine.generate(text, diags);
  if (!artifacts || diags.has_errors()) {
    return in.spec.filename().string() + ": " + diags.render();
  }
  artifacts->write_to(in.out_root.string());
  if (record) {
    in.device = artifacts->spec.target.device_name;
    in.hardware.clear();
    for (const auto& f : artifacts->hardware) in.hardware.push_back(f.filename);
    in.files = artifacts->filenames();
  }
  return {};
}

/// One op, traced: the same work through parse_spec and the
/// Engine::generate(DeviceSpec) overload, each public call in a span.
std::string run_traced_op(const splice::Engine& engine, const Input& in,
                          std::size_t index, OpOutput& out) {
  telemetry::Span op("bench.op", "bench");
  op.arg("op", index);
  const std::string text = read_file(in.spec);
  splice::DiagnosticEngine diags;
  std::optional<splice::ir::DeviceSpec> spec;
  {
    telemetry::Span s("frontend.parse", "bench");
    s.arg("op", index);
    s.arg("bytes", text.size());
    spec = splice::frontend::parse_spec(text, diags);
  }
  std::optional<splice::GeneratedArtifacts> artifacts;
  if (spec) {
    telemetry::Span s("core.generate", "bench");
    s.arg("op", index);
    artifacts = engine.generate(std::move(*spec), diags);
  }
  if (!artifacts || diags.has_errors()) {
    return in.spec.filename().string() + ": " + diags.render();
  }
  {
    telemetry::Span s("core.write", "bench");
    s.arg("op", index);
    artifacts->write_to(in.out_root.string());
  }
  for (const auto* set : {&artifacts->hardware, &artifacts->software}) {
    for (const auto& f : *set) {
      ++out.files;
      out.bytes += f.content.size();
    }
  }
  return {};
}

State build_state(const Options& opt, const fs::path& dir) {
  const fs::path in_dir = dir / "in";
  const fs::path out_dir = dir / "out";
  fs::remove_all(in_dir);
  fs::remove_all(out_dir);
  fs::create_directories(in_dir);
  fs::create_directories(out_dir);

  State st;
  // The corpus in both HDLs, each paired with its golden fixture.
  std::vector<fs::path> corpus;
  for (const auto& e : fs::directory_iterator(opt.repo / "specs" / "corpus")) {
    if (e.path().extension() == ".splice") corpus.push_back(e.path());
  }
  std::sort(corpus.begin(), corpus.end());
  if (corpus.empty()) throw std::runtime_error("specs/corpus has no specs");
  for (const fs::path& p : corpus) {
    for (const char* hdl : {"vhdl", "verilog"}) {
      const std::string name = "corpus_" + p.stem().string() + "_" + hdl;
      std::string text = read_file(p);
      if (std::string_view(hdl) == "verilog") text += "%target_hdl verilog\n";
      Golden& g = st.goldens.emplace_back();
      for (const auto& e :
           fs::directory_iterator(opt.repo / "tests" / "golden" / name)) {
        g.files[e.path().filename().string()] = read_file(e.path());
      }
      Input in;
      in.spec = in_dir / (name + ".splice");
      in.out_root = out_dir / (std::string("corpus_") + hdl);
      in.golden = &g;
      write_file(in.spec, text);
      st.inputs.push_back(std::move(in));
    }
  }
  // Seeded SpecGen specs; SpecGen names every device fuzz_dev, so each gets
  // its own name (concurrent writes would collide otherwise).
  for (std::size_t i = 0; i < kGenSpecs; ++i) {
    const std::uint64_t s = splitmix64(opt.seed * 0x100000001b3ULL + i);
    splice::testing::SpecModel model = splice::testing::generate_spec(s);
    model.device_name = "g" + std::to_string(i);
    const auto hdl = (splitmix64(s) & 1) != 0 ? splice::ir::Hdl::Verilog
                                              : splice::ir::Hdl::Vhdl;
    Input in;
    in.spec = in_dir / (model.device_name + ".splice");
    in.out_root = out_dir / "gen";
    write_file(in.spec, model.render(hdl));
    st.inputs.push_back(std::move(in));
  }
  st.pool = std::make_unique<splice::support::JobPool>(kWorkers - 1);
  return st;
}

splice::EngineOptions engine_options(State& st,
                                     telemetry::MetricsRegistry* metrics) {
  splice::EngineOptions o;
  o.jobs = kWorkers;
  o.pool = st.pool.get();
  o.metrics = metrics;
  return o;
}

/// Closed loop: whole passes over the inputs until `seconds` of measured
/// time have passed.  Each pass is one parallel_for on the pool and
/// rewrites the files the set-up pass created.
void measure(State& st, const splice::Engine& engine, double seconds,
             LayerTrace* trace, Report& rep, OpOutput* written,
             PhaseResult& ph) {
  const std::size_t n = st.inputs.size();
  std::vector<double> dur(n);
  std::vector<std::string> err(n);
  std::vector<OpOutput> out(n);
  const double until = ph.timed_s + seconds;
  while (ph.timed_s < until) {
    std::unique_ptr<TraceChunk> chunk;
    if (trace != nullptr) chunk = std::make_unique<TraceChunk>();
    const std::uint64_t base = ph.ops;
    const auto t0 = Clock::now();
    splice::support::parallel_for(st.pool.get(), n, [&](std::size_t i) {
      const auto a = Clock::now();
      try {
        err[i] = trace != nullptr
                     ? run_traced_op(engine, st.inputs[i], base + i, out[i])
                     : run_op(engine, st.inputs[i], false);
      } catch (const std::exception& e) {
        err[i] = st.inputs[i].spec.filename().string() + ": " + e.what();
      }
      dur[i] = ns_between(a, Clock::now());
    });
    ph.timed_s += ns_between(t0, Clock::now()) * 1e-9;
    if (chunk) chunk->finish(*trace, &rep.trace_json);
    for (std::size_t i = 0; i < n; ++i) {
      ph.latency.add(dur[i]);
      if (!err[i].empty()) {
        ++ph.failed;
        rep.fail(err[i]);
        err[i].clear();
      }
      if (written != nullptr) {
        written->files += out[i].files;
        written->bytes += out[i].bytes;
      }
      out[i] = {};
    }
    ph.ops += n;
  }
}

/// Read every output of the last pass back from disk: digest it and
/// byte-compare the corpus hardware files with their goldens.
void verify_outputs(const State& st, Report& rep) {
  Digest digest;
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  for (const Input& in : st.inputs) {
    const fs::path dir = in.out_root / in.device;
    std::vector<std::string> names = in.files;
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      std::string content;
      try {
        content = read_file(dir / name);
      } catch (const std::exception& e) {
        rep.fail(e.what());
        continue;
      }
      digest.add(name);
      digest.add(content);
      ++files;
      bytes += content.size();
    }
    if (in.golden == nullptr) continue;
    std::vector<std::string> want;
    for (const auto& entry : in.golden->files) want.push_back(entry.first);
    std::vector<std::string> got = in.hardware;
    std::sort(got.begin(), got.end());
    if (got != want) {
      rep.fail(in.spec.filename().string() + ": hardware file set differs "
               "from its golden");
      continue;
    }
    for (const auto& [name, golden] : in.golden->files) {
      if (read_file(dir / name) != golden) {
        rep.fail(in.spec.filename().string() + ": " + name +
                 " differs from its golden");
      }
    }
  }
  rep.counts.emplace_back("ops_per_pass", std::to_string(st.inputs.size()));
  rep.counts.emplace_back("files_per_pass", std::to_string(files));
  rep.counts.emplace_back("bytes_per_pass", std::to_string(bytes));
  rep.counts.emplace_back("output_digest", hex64(digest.value()));
}

double hist_sum(const telemetry::MetricsSnapshot& snap, const char* name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : static_cast<double>(it->second.sum);
}

}  // namespace

fs::path gen_batch_dir(const Options& opt) { return opt.work / "gen_batch"; }

Report run_gen_batch(const Options& opt) {
  Report rep;
  const fs::path dir = gen_batch_dir(opt);
  State st;
  // Set-up: write the input files, load the goldens, start the pool and
  // run one pass that creates every output file.
  rep.setup_s = median_setup_s(
      kSetupReps, [&] { st = {}; },
      [&] {
        st = build_state(opt, dir);
        const splice::Engine engine(
            splice::adapters::AdapterRegistry::instance(),
            engine_options(st, nullptr));
        std::vector<std::string> err(st.inputs.size());
        splice::support::parallel_for(
            st.pool.get(), st.inputs.size(), [&](std::size_t i) {
              try {
                err[i] = run_op(engine, st.inputs[i], true);
              } catch (const std::exception& e) {
                err[i] = e.what();
              }
            });
        for (const std::string& e : err) {
          if (!e.empty()) rep.fail("set-up pass: " + e);
        }
      });
  rep.output_dir = dir / "out";

  const splice::Engine engine(splice::adapters::AdapterRegistry::instance(),
                              engine_options(st, nullptr));
  if (!opt.trace) {
    measure(st, engine, opt.seconds, nullptr, rep, nullptr, rep.measured);
  } else {
    // The traced engine also records the gen.* phase histograms.
    telemetry::MetricsRegistry metrics;
    const splice::Engine traced_engine(
        splice::adapters::AdapterRegistry::instance(),
        engine_options(st, &metrics));
    LayerTrace lt;
    OpOutput written;
    PhaseResult traced;
    interleave(opt.seconds, rep.measured, traced,
               [&](double s, bool t, PhaseResult& ph) {
                 if (t) {
                   measure(st, traced_engine, s, &lt, rep, &written, ph);
                 } else {
                   measure(st, engine, s, nullptr, rep, nullptr, ph);
                 }
               });
    rep.account(traced);
    const double ops = static_cast<double>(traced.ops);
    const telemetry::MetricsSnapshot snap = metrics.snapshot();
    auto& L = rep.layer;
    L["frontend.parse_us"] = lt.total_us("frontend.parse") / ops;
    L["frontend.bytes_per_s"] =
        static_cast<double>(lt.arg_sum("frontend.parse", "bytes")) /
        (lt.total_us("frontend.parse") * 1e-6);
    L["ir.validate_us"] = hist_sum(snap, "gen.validate_us") / ops;
    L["codegen.us"] = hist_sum(snap, "gen.codegen_us") / ops;
    L["codegen.modules"] = counter_of(snap, "gen.modules") / ops;
    L["codegen.cse_hits"] = counter_of(snap, "gen.hdl_cse_hits") / ops;
    L["drivergen.emit_us"] = hist_sum(snap, "gen.drivergen_us") / ops;
    L["core.generate_us"] = lt.total_us("core.generate") / ops;
    L["core.merge_us"] = hist_sum(snap, "gen.merge_us") / ops;
    L["core.write_us"] = lt.total_us("core.write") / ops;
    L["core.files_written"] = static_cast<double>(written.files) / ops;
    L["core.bytes_written"] = static_cast<double>(written.bytes) / ops;
    L["support.pool_busy_frac"] =
        traced.latency.sum_ns() / (traced.timed_s * 1e9 * kWorkers);
    for (const char* layer : {"bench", "frontend", "core"}) {
      L[std::string(layer) + ".self_us"] = lt.self_us(layer) / ops;
    }
    L["trace.overhead_frac"] = 1 - traced.ops_per_s() / rep.measured.ops_per_s();
  }
  rep.account(rep.measured);

  verify_outputs(st, rep);
  return rep;
}

}  // namespace perfbench
