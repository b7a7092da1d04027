// fig9_calls: one `interp` driver call per op, from call to decoded result,
// on long-lived platforms for the three Splice implementations of the
// Figure 9.2 evaluation (PLB simple, PLB+DMA, FCB) x the four Figure 9.1
// scenarios.  Input data comes from devices::make_inputs with seeds drawn
// from the run seed; every result is compared with devices::interpolate.
#include "common.hpp"
#include "devices/interpolator.hpp"
#include "drivergen/program.hpp"
#include "rtl/observe/platform_observer.hpp"
#include "runtime/platform.hpp"
#include "testing/rng.hpp"

namespace perfbench {
namespace {

using splice::testing::splitmix64;

constexpr unsigned kInputSets = 4;  ///< data sets per scenario
constexpr unsigned kSetupReps = 31;
constexpr std::size_t kChunk = 480;  ///< ops per measured chunk

struct ImplDef {
  const char* bus;
  bool burst;
  bool dma;
};
// The Splice rows of Figure 9.2: PLB simple, PLB + DMA, FCB.
constexpr ImplDef kImpls[] = {{"plb", false, false},
                              {"plb", false, true},
                              {"fcb", true, false}};

struct Item {
  std::size_t platform;
  splice::drivergen::CallArgs args;
  std::uint32_t expected;
};

struct State {
  std::vector<std::unique_ptr<splice::runtime::VirtualPlatform>> platforms;
  std::vector<Item> items;
};

State build_state(const Options& opt) {
  State st;
  for (const ImplDef& d : kImpls) {
    st.platforms.push_back(std::make_unique<splice::runtime::VirtualPlatform>(
        splice::devices::make_interpolator_spec(d.bus, d.burst, d.dma),
        splice::devices::make_interpolator_behaviors()));
  }
  for (unsigned k = 0; k < kInputSets; ++k) {
    for (std::size_t p = 0; p < st.platforms.size(); ++p) {
      for (const auto& sc : splice::devices::scenarios()) {
        const auto seed = static_cast<std::uint32_t>(
            splitmix64(opt.seed * 0x9e3779b1ULL + k * 16 + sc.id));
        const auto in = splice::devices::make_inputs(sc, seed);
        st.items.push_back(
            {p,
             {{in.set1.size()}, in.set1, {in.set2.size()}, in.set2,
              {in.set3.size()}, in.set3},
             in.expected()});
      }
    }
  }
  return st;
}

bool result_ok(const splice::runtime::CallResult& r, const Item& it) {
  return r.outputs.size() == 1 && r.outputs[0] == it.expected;
}

std::string mismatch(const splice::runtime::CallResult& r, const Item& it) {
  return "platform " + std::to_string(it.platform) + ": interp returned " +
         (r.outputs.empty() ? std::string("nothing")
                            : std::to_string(r.outputs[0])) +
         ", interpolate() gives " + std::to_string(it.expected);
}

/// Closed loop, one host thread: ops round-robin over the items until
/// `seconds` of measured time have passed, moving over the CPUs.
/// `cycles` accumulates the simulated cycles of the measured calls.
void measure(State& st, double seconds, LayerTrace* trace, Report& rep,
             std::uint64_t& cycles, CpuRotation& cpus, PhaseResult& ph) {
  std::size_t next = 0;
  const double until = ph.timed_s + seconds;
  while (ph.timed_s < until) {
    cpus.tick();
    std::unique_ptr<TraceChunk> chunk;
    if (trace != nullptr) chunk = std::make_unique<TraceChunk>();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kChunk; ++k) {
      const Item& it = st.items[next];
      next = (next + 1) % st.items.size();
      auto& vp = *st.platforms[it.platform];
      const auto a = Clock::now();
      std::string err;
      try {
        splice::runtime::CallResult r;
        if (trace == nullptr) {
          r = vp.call("interp", it.args);
        } else {
          // What VirtualPlatform::call does, one public call per span.
          telemetry::Span op("bench.op", "bench");
          op.arg("op", ph.ops);
          splice::drivergen::DriverProgram program;
          {
            telemetry::Span s("drivergen.build_call", "bench");
            s.arg("op", ph.ops);
            const auto* fn = vp.spec().find_function("interp");
            program = splice::drivergen::DriverBuilder(vp.spec(), *fn)
                          .build_call(it.args);
          }
          telemetry::Span s("runtime.run_program", "bench");
          s.arg("op", ph.ops);
          r = vp.run_program("interp", std::move(program), it.args);
          s.arg("cycles", r.bus_cycles);
        }
        cycles += r.bus_cycles;
        if (!result_ok(r, it)) err = mismatch(r, it);
      } catch (const std::exception& e) {
        err = e.what();
      }
      ph.latency.add(ns_between(a, Clock::now()));
      ++ph.ops;
      if (!err.empty()) {
        ++ph.failed;
        rep.fail(err);
      }
    }
    ph.timed_s += ns_between(t0, Clock::now()) * 1e-9;
    if (chunk) chunk->finish(*trace, &rep.trace_json);
  }
}

/// One pass over every item on fresh platforms with the observability
/// layer attached: exact simulated counts for the determinism record.
void evidence_pass(const Options& opt, Report& rep) {
  State st = build_state(opt);
  std::vector<std::unique_ptr<splice::rtl::observe::PlatformObserver>> obs;
  for (auto& vp : st.platforms) {
    obs.push_back(
        std::make_unique<splice::rtl::observe::PlatformObserver>(*vp));
  }
  Digest digest;
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < st.items.size(); ++i) {
    const Item& it = st.items[i];
    obs[it.platform]->begin_call("interp", i);
    const auto r = st.platforms[it.platform]->call("interp", it.args);
    obs[it.platform]->end_call();
    if (!result_ok(r, it)) rep.fail("evidence pass: " + mismatch(r, it));
    cycles += r.bus_cycles;
    digest.add(r.bus_cycles);
    for (std::uint64_t v : r.outputs) digest.add(v);
  }
  std::uint64_t txns = 0;
  std::uint64_t stalls = 0;
  for (std::size_t p = 0; p < obs.size(); ++p) {
    txns += obs[p]->transactions();
    stalls += obs[p]->stall_cycles();
    digest.add(obs[p]->bus_stream());
  }
  const auto calls = static_cast<double>(st.items.size());
  rep.layer["bus.transactions_per_call"] = static_cast<double>(txns) / calls;
  rep.layer["bus.stall_cycles_per_call"] = static_cast<double>(stalls) / calls;
  obs.clear();
  rep.counts.emplace_back("calls", std::to_string(st.items.size()));
  rep.counts.emplace_back("sim_cycles", std::to_string(cycles));
  rep.counts.emplace_back("transactions", std::to_string(txns));
  rep.counts.emplace_back("stall_cycles", std::to_string(stalls));
  rep.counts.emplace_back("result_digest", hex64(digest.value()));
}

/// Kernel counters summed over every platform.
telemetry::MetricsSnapshot kernel_snapshot(const State& st) {
  telemetry::MetricsSnapshot sum;
  for (const auto& vp : st.platforms) {
    add_snapshot(sum, vp->sim().metrics_snapshot());
  }
  return sum;
}

}  // namespace

Report run_fig9_calls(const Options& opt) {
  Report rep;
  State st;
  CpuRotation cpus(opt.seconds);
  // Set-up: assemble the three platforms and warm each with one call.
  rep.setup_s = median_setup_s(
      kSetupReps,
      [&] { st = {}; },
      [&] {
        st = build_state(opt);
        for (std::size_t p = 0; p < st.platforms.size(); ++p) {
          for (const Item& it : st.items) {
            if (it.platform != p) continue;
            const auto r = st.platforms[p]->call("interp", it.args);
            if (!result_ok(r, it)) rep.fail("warm-up: " + mismatch(r, it));
            break;
          }
        }
      });

  std::uint64_t cycles = 0;
  if (!opt.trace) {
    measure(st, opt.seconds, nullptr, rep, cycles, cpus, rep.measured);
  } else {
    LayerTrace lt;
    std::uint64_t traced_cycles = 0;
    telemetry::MetricsSnapshot kernel;  // traced slices only
    PhaseResult traced;
    interleave(opt.seconds, rep.measured, traced,
               [&](double s, bool t, PhaseResult& ph) {
                 if (!t) {
                   measure(st, s, nullptr, rep, cycles, cpus, ph);
                   return;
                 }
                 const auto before = kernel_snapshot(st);
                 measure(st, s, &lt, rep, traced_cycles, cpus, ph);
                 add_snapshot(kernel, kernel_snapshot(st).diff_since(before));
               });
    rep.account(traced);
    const double ops = static_cast<double>(traced.ops);
    const double cyc = static_cast<double>(traced_cycles);
    auto& L = rep.layer;
    L["drivergen.build_call_us"] =
        lt.total_us("drivergen.build_call") / ops;
    L["runtime.run_program_us"] = lt.total_us("runtime.run_program") / ops;
    L["rtl.ns_per_cycle"] = lt.total_us("runtime.run_program") * 1e3 / cyc;
    L["rtl.cycles_per_op"] = cyc / ops;
    // Per simulated cycle, counting the idle cycles between calls too.
    const double sim_cycles = counter_of(kernel, "sim.cycles");
    L["rtl.settles_per_cycle"] = counter_of(kernel, "sim.settles") / sim_cycles;
    L["rtl.worklist_pushes_per_cycle"] =
        counter_of(kernel, "sim.worklist_pushes") / sim_cycles;
    L["rtl.signal_changes_per_cycle"] =
        counter_of(kernel, "sim.signal_changes") / sim_cycles;
    L["rtl.commits_per_cycle"] = counter_of(kernel, "sim.commits") / sim_cycles;
    // Cycles that committed no register write.
    auto commits = kernel.histograms.find("sim.step_commits");
    if (commits != kernel.histograms.end() && commits->second.count != 0) {
      L["rtl.quiescent_frac"] =
          static_cast<double>(commits->second.buckets[0]) /
          static_cast<double>(commits->second.count);
    }
    for (const char* layer : {"bench", "drivergen", "runtime"}) {
      L[std::string(layer) + ".self_us"] = lt.self_us(layer) / ops;
    }
    L["trace.overhead_frac"] = 1 - traced.ops_per_s() / rep.measured.ops_per_s();
  }
  rep.account(rep.measured);
  rep.sim_cycles = static_cast<double>(cycles);
  rep.layer["rtl.sim_cycles_per_s"] = rep.sim_cycles / rep.measured.timed_s;

  std::uint64_t violations = 0;
  for (const auto& vp : st.platforms) {
    violations += vp->checker().violations().size();
    for (const auto& v : vp->checker().violations()) rep.fail("SIS: " + v);
  }
  rep.layer["sis.violations"] = static_cast<double>(violations);
  evidence_pass(opt, rep);
  return rep;
}

}  // namespace perfbench
