// soc_sweep: one seeded testing::generate_soc topology per op, end to end:
// parse and validate its devices, assemble the SocPlatform, run a seeded
// call schedule on 1-2 masters (bridged OPB segment, nowait calls completed
// by interrupt or polling), check every result against the benchmark's own
// pure calculation behaviour, check the protocol checkers and the bridge
// watchdog, and tear the platform down.
#include <optional>

#include "common.hpp"
#include "frontend/parser.hpp"
#include "ir/validate.hpp"
#include "rtl/observe/soc_observer.hpp"
#include "runtime/soc.hpp"
#include "support/digest64.hpp"
#include "testing/rng.hpp"
#include "testing/spec_gen.hpp"

namespace perfbench {
namespace {

using splice::testing::Rng;
using splice::testing::splitmix64;

constexpr std::size_t kTopologies = 2500;
constexpr unsigned kRounds = 5;        ///< call rounds per topology
constexpr unsigned kMaxWindow = 512;   ///< calculation window, cycles
constexpr unsigned kSetupReps = 3;
constexpr std::size_t kChunk = 8;      ///< ops per measured chunk
constexpr std::size_t kEvidenceOps = 32;

std::uint64_t elem_mask(const splice::ir::IoParam& p) {
  const unsigned w = p.type.bits;
  return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
}

/// The benchmark's calculation behaviour: a pure function of (function,
/// instance, inputs) — stubs without inputs re-run it on every read — with
/// a window of 1..kMaxWindow cycles.
splice::elab::CalcResult calc(
    const splice::ir::FunctionDecl& fn, std::uint32_t instance,
    const std::vector<std::vector<std::uint64_t>>& inputs) {
  std::uint64_t s =
      splitmix64(splice::support::digest64(fn.name) ^ (0xca1cULL + instance));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < inputs[i].size(); ++j) {
      s = splitmix64(s ^ inputs[i][j] ^ ((i * 131 + j) * 0x9e3779b9ULL));
    }
  }
  splice::elab::CalcResult r;
  r.calc_cycles = 1 + static_cast<unsigned>(s % kMaxWindow);
  if (fn.has_output()) {
    const splice::ir::IoParam& out = fn.output;
    std::uint64_t count = 1;
    if (out.count_kind == splice::ir::CountKind::Explicit) {
      count = out.explicit_count;
    } else if (out.count_kind == splice::ir::CountKind::Implicit) {
      count = 0;
      for (std::size_t j = 0; j < fn.inputs.size(); ++j) {
        if (fn.inputs[j].name == out.index_var && !inputs[j].empty()) {
          count = inputs[j][0];
          break;
        }
      }
    }
    for (std::uint64_t k = 0; k < count; ++k) {
      r.outputs.push_back(splitmix64(s ^ (0xa11ceULL + k)) & elem_mask(out));
    }
  }
  const auto byref = fn.by_ref_params();
  for (std::size_t k = 0; k < byref.size(); ++k) {
    const splice::ir::IoParam& p = fn.inputs[byref[k]];
    std::vector<std::uint64_t> vals;
    for (std::size_t j = 0; j < inputs[byref[k]].size(); ++j) {
      vals.push_back(splitmix64(s ^ (0xbeefULL + byref[k] * 4096 + j)) &
                     elem_mask(p));
    }
    r.byref.push_back(std::move(vals));
  }
  return r;
}

/// Argument values for one call; index scalars stay in [1, 8] so implicit
/// transfer sizes stay small.
splice::drivergen::CallArgs make_args(Rng& rng,
                                      const splice::ir::FunctionDecl& fn) {
  splice::drivergen::CallArgs args;
  for (const splice::ir::IoParam& p : fn.inputs) {
    std::uint64_t count = 1;
    if (p.count_kind == splice::ir::CountKind::Explicit) {
      count = p.explicit_count;
    } else if (p.count_kind == splice::ir::CountKind::Implicit) {
      for (std::size_t j = 0; j < args.size(); ++j) {
        if (fn.inputs[j].name == p.index_var && !args[j].empty()) {
          count = args[j][0];
          break;
        }
      }
    }
    std::vector<std::uint64_t> vals;
    if (!p.is_array() && p.used_as_index) {
      vals.push_back(rng.range(1, 8));
    } else {
      for (std::uint64_t k = 0; k < count; ++k) vals.push_back(rng.next());
    }
    args.push_back(std::move(vals));
  }
  return args;
}

struct Call {
  std::size_t device = 0;
  std::string function;
  std::uint32_t instance = 0;
  unsigned master = 0;
  bool blocking = true;
  bool irq_wait = false;
  splice::drivergen::CallArgs args;
  splice::elab::CalcResult want;
};

struct Topology {
  std::vector<std::string> texts;  ///< one .splice spec per device
  std::vector<unsigned> segments;
  unsigned masters = 1;
  bool irq = false;
  std::vector<Call> calls;
};

/// Set-up for one topology: render its specs and derive the call
/// schedule and the expected results from the parsed declarations.
Topology make_topology(std::uint64_t seed) {
  const splice::testing::SocModel model = splice::testing::generate_soc(seed);
  Topology t;
  t.segments = model.segments;
  t.masters = model.masters;
  t.irq = model.irq;
  Rng rng(splitmix64(seed ^ 0x50cULL));
  std::vector<splice::ir::DeviceSpec> specs;
  for (const auto& dev : model.devices) {
    t.texts.push_back(dev.render());
    splice::DiagnosticEngine diags;
    auto spec = splice::frontend::parse_spec(t.texts.back(), diags);
    if (!spec || !splice::ir::validate(*spec, diags)) {
      throw std::runtime_error("generated SoC device rejected:\n" +
                               diags.render());
    }
    specs.push_back(std::move(*spec));
  }
  for (unsigned round = 0; round < kRounds; ++round) {
    for (std::size_t d = 0; d < specs.size(); ++d) {
      for (const splice::ir::FunctionDecl& fn : specs[d].functions) {
        Call c;
        c.device = d;
        c.function = fn.name;
        c.instance = static_cast<std::uint32_t>(rng.range(0, fn.instances - 1));
        c.args = make_args(rng, fn);
        c.master = static_cast<unsigned>(
            t.masters > 1 ? rng.range(0, t.masters - 1) : 0);
        c.blocking = fn.blocking();
        // The interrupt fabric wakes master 0 only; other masters poll.
        c.irq_wait = t.irq && c.master == 0;
        std::vector<std::vector<std::uint64_t>> masked(c.args.size());
        for (std::size_t i = 0; i < c.args.size(); ++i) {
          for (std::uint64_t v : c.args[i]) {
            masked[i].push_back(v & elem_mask(fn.inputs[i]));
          }
        }
        c.want = calc(fn, c.instance, masked);
        if (!fn.has_output()) c.want.outputs.clear();
        t.calls.push_back(std::move(c));
      }
    }
  }
  return t;
}

/// What ops did, summed.
struct OpStats {
  std::uint64_t cycles = 0;       ///< every simulated cycle of the op
  std::uint64_t call_cycles = 0;  ///< inside driver calls
  std::uint64_t wait_cycles = 0;  ///< inside completion waits
  std::uint64_t calls = 0;
  std::uint64_t bridge_grants = 0;
  std::uint64_t bridge_timeouts = 0;
  std::uint64_t violations = 0;
  // Kernel counters (collect_kernel) and observer counts (observe).
  double settles = 0, pushes = 0, changes = 0, commits = 0;
  double quiet_cycles = 0, stepped_cycles = 0;
  std::uint64_t transactions = 0, stalls = 0;
  Digest digest;
};

struct OpMode {
  bool collect_kernel = false;
  bool observe = false;
};

std::string run_topology(const Topology& t, std::size_t index, OpMode mode,
                         OpStats& st) {
  // Spans are no-ops unless a tracer is installed (the traced phase).
  telemetry::Span op("bench.op", "bench");
  op.arg("op", index);
  splice::runtime::SocConfig config;
  for (std::size_t d = 0; d < t.texts.size(); ++d) {
    splice::DiagnosticEngine diags;
    std::optional<splice::ir::DeviceSpec> spec;
    {
      telemetry::Span s("frontend.parse", "bench");
      s.arg("op", index);
      s.arg("bytes", t.texts[d].size());
      spec = splice::frontend::parse_spec(t.texts[d], diags);
    }
    bool valid = spec.has_value();
    if (valid) {
      telemetry::Span s("ir.validate", "bench");
      s.arg("op", index);
      valid = splice::ir::validate(*spec, diags);
    }
    if (!valid) {
      return "device " + std::to_string(d) + " rejected:\n" + diags.render();
    }
    splice::runtime::SocDevice dev;
    dev.segment = t.segments[d];
    for (const splice::ir::FunctionDecl& fn : spec->functions) {
      dev.behaviors.set(fn.name,
                        [decl = fn](const splice::elab::CallContext& ctx) {
                          return calc(decl, ctx.instance_index, ctx.inputs);
                        });
    }
    dev.spec = std::move(*spec);
    config.devices.push_back(std::move(dev));
  }
  config.masters = t.masters;
  config.irq = t.irq;

  std::optional<splice::runtime::SocPlatform> soc;
  {
    telemetry::Span s("runtime.assemble", "bench");
    s.arg("op", index);
    soc.emplace(std::move(config));
  }
  std::optional<splice::rtl::observe::SocObserver> obs;
  if (mode.observe) obs.emplace(*soc);

  std::string err;
  for (std::size_t i = 0; i < t.calls.size() && err.empty(); ++i) {
    const Call& c = t.calls[i];
    if (obs) obs->begin_call(c.function, i, c.master);
    splice::runtime::CallResult r;
    {
      telemetry::Span s("runtime.call", "bench");
      s.arg("op", index);
      r = soc->call(c.device, c.function, c.args, c.instance, c.master);
      s.arg("cycles", r.bus_cycles);
    }
    if (obs) obs->end_call(c.master);
    ++st.calls;
    st.call_cycles += r.bus_cycles;
    st.digest.add(r.bus_cycles);
    for (std::uint64_t v : r.outputs) st.digest.add(v);
    if (c.blocking) {
      const char* wrong =
          r.outputs != c.want.outputs ? "wrong outputs"
          : !c.want.byref.empty() && r.byref_outputs != c.want.byref
              ? "wrong by-reference read-back"
              : nullptr;
      if (wrong != nullptr) {
        err = "topology " + std::to_string(index) + " call " +
              std::to_string(i) + " '" + c.function + "': " + wrong;
      }
    } else {
      telemetry::Span s("runtime.wait", "bench");
      s.arg("op", index);
      const auto w = soc->wait_completion(c.device, c.function, c.instance,
                                          c.irq_wait, c.master);
      s.arg("cycles", w.bus_cycles);
      st.wait_cycles += w.bus_cycles;
      st.digest.add(w.bus_cycles);
    }
  }
  soc->sim().step(64);  // let trailing strobes and interrupt drops settle

  const auto violations = soc->violations();
  st.violations += violations.size();
  if (err.empty() && !violations.empty()) {
    err = "topology " + std::to_string(index) + ": " + violations.front();
  }
  if (auto* bridge = soc->bridge()) {
    st.bridge_grants += bridge->grants();
    st.bridge_timeouts += bridge->timeouts();
    if (err.empty() && bridge->timeouts() != 0) {
      err = "topology " + std::to_string(index) + ": bridge watchdog fired";
    }
  }
  st.cycles += soc->sim().cycle();
  if (mode.collect_kernel) {
    const auto snap = soc->sim().metrics_snapshot();
    st.settles += counter_of(snap, "sim.settles");
    st.pushes += counter_of(snap, "sim.worklist_pushes");
    st.changes += counter_of(snap, "sim.signal_changes");
    st.commits += counter_of(snap, "sim.commits");
    // Cycles that committed no register write.
    auto h = snap.histograms.find("sim.step_commits");
    if (h != snap.histograms.end()) {
      st.quiet_cycles += static_cast<double>(h->second.buckets[0]);
      st.stepped_cycles += static_cast<double>(h->second.count);
    }
  }
  if (obs) {
    st.transactions += obs->transactions();
    for (std::size_t d = 0; d < soc->device_count(); ++d) {
      st.stalls += obs->device_decoder(d).stall_cycles();
    }
    st.digest.add(obs->bus_stream());
    obs.reset();
  }
  return err;
}

/// Closed loop over the topologies from index `start` on, until `seconds`
/// of measured time have passed, moving over the CPUs.
void measure(const std::vector<Topology>& tops, std::size_t start,
             double seconds, LayerTrace* trace, OpMode mode, Report& rep,
             OpStats& st, CpuRotation& cpus,
             std::vector<std::uint64_t>* first_cycles, PhaseResult& ph) {
  std::size_t done = 0;
  const double until = ph.timed_s + seconds;
  while (ph.timed_s < until) {
    cpus.tick();
    std::unique_ptr<TraceChunk> chunk;
    if (trace != nullptr) chunk = std::make_unique<TraceChunk>();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kChunk; ++k) {
      const std::size_t i = (start + done++) % tops.size();
      const std::uint64_t cycles0 = st.cycles;
      const auto a = Clock::now();
      std::string err;
      try {
        err = run_topology(tops[i], i, mode, st);
      } catch (const std::exception& e) {
        err = "topology " + std::to_string(i) + ": " + e.what();
      }
      ph.latency.add(ns_between(a, Clock::now()));
      if (first_cycles != nullptr && ph.ops < kEvidenceOps) {
        first_cycles->push_back(st.cycles - cycles0);
      }
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

}  // namespace

Report run_soc_sweep(const Options& opt) {
  Report rep;
  std::vector<Topology> tops;
  CpuRotation cpus(opt.seconds);
  // Set-up: generate the topologies and schedules, then one warm-up op.
  rep.setup_s = median_setup_s(
      kSetupReps,
      [&] { tops.clear(); },
      [&] {
        for (std::size_t i = 0; i < kTopologies; ++i) {
          tops.push_back(
              make_topology(splitmix64(opt.seed * 0x2545f491ULL + i)));
        }
        OpStats warm;
        const std::string err = run_topology(tops[0], 0, {}, warm);
        if (!err.empty()) rep.fail("warm-up: " + err);
      });

  OpStats plain_stats;
  std::vector<std::uint64_t> first_cycles;
  if (!opt.trace) {
    measure(tops, 0, opt.seconds, nullptr, {}, rep, plain_stats, cpus,
            &first_cycles, rep.measured);
  } else {
    // Each traced slice repeats the topologies of the untraced slice
    // before it.
    LayerTrace lt;
    OpStats st;
    PhaseResult traced;
    std::size_t slice_start = 0;
    interleave(opt.seconds, rep.measured, traced,
               [&](double s, bool t, PhaseResult& ph) {
                 if (t) {
                   measure(tops, slice_start, s, &lt,
                           {.collect_kernel = true}, rep, st, cpus, nullptr,
                           ph);
                   return;
                 }
                 slice_start = ph.ops % tops.size();
                 measure(tops, slice_start, s, nullptr, {}, rep, plain_stats,
                         cpus, &first_cycles, ph);
               });
    rep.account(traced);
    const double ops = static_cast<double>(traced.ops);
    const double call_ns = lt.total_us("runtime.call") * 1e3;
    const double wait_ns = lt.total_us("runtime.wait") * 1e3;
    const double call_cyc = static_cast<double>(st.call_cycles);
    const double wait_cyc = static_cast<double>(st.wait_cycles);
    auto per_span = [&lt](const char* name) {
      return lt.total_us(name) / static_cast<double>(lt.count(name));
    };
    auto& L = rep.layer;
    L["frontend.parse_us"] = per_span("frontend.parse");
    L["frontend.bytes_per_s"] =
        static_cast<double>(lt.arg_sum("frontend.parse", "bytes")) /
        (lt.total_us("frontend.parse") * 1e-6);
    L["ir.validate_us"] = per_span("ir.validate");
    L["runtime.assemble_us"] = per_span("runtime.assemble");
    L["runtime.call_us"] = per_span("runtime.call");
    L["runtime.wait_us"] = per_span("runtime.wait");
    L["rtl.ns_per_cycle"] = (call_ns + wait_ns) / (call_cyc + wait_cyc);
    L["rtl.call_ns_per_cycle"] = call_ns / call_cyc;
    L["rtl.wait_ns_per_cycle"] = wait_ns / wait_cyc;
    L["rtl.cycles_per_op"] = static_cast<double>(st.cycles) / ops;
    L["rtl.quiescent_frac"] = st.quiet_cycles / st.stepped_cycles;
    const double cyc = static_cast<double>(st.cycles);
    L["rtl.settles_per_cycle"] = st.settles / cyc;
    L["rtl.worklist_pushes_per_cycle"] = st.pushes / cyc;
    L["rtl.signal_changes_per_cycle"] = st.changes / cyc;
    L["rtl.commits_per_cycle"] = st.commits / cyc;
    L["bus.bridge_grants"] = static_cast<double>(st.bridge_grants) / ops;
    L["bus.bridge_timeouts"] = static_cast<double>(st.bridge_timeouts);
    L["sis.violations"] = static_cast<double>(st.violations);
    for (const char* layer : {"bench", "frontend", "ir", "runtime"}) {
      L[std::string(layer) + ".self_us"] = lt.self_us(layer) / ops;
    }
    L["trace.overhead_frac"] = 1 - traced.ops_per_s() / rep.measured.ops_per_s();
  }
  rep.account(rep.measured);
  rep.sim_cycles = static_cast<double>(plain_stats.cycles);
  rep.layer["rtl.sim_cycles_per_s"] = rep.sim_cycles / rep.measured.timed_s;

  // Evidence: the first topologies again with the observers attached.  The
  // observers must not change a simulated cycle of what was measured.
  OpStats ev;
  for (std::size_t i = 0; i < kEvidenceOps; ++i) {
    const std::uint64_t cycles0 = ev.cycles;
    const std::string err =
        run_topology(tops[i % tops.size()], i, {.observe = true}, ev);
    if (!err.empty()) rep.fail("evidence pass: " + err);
    if (i < first_cycles.size() && first_cycles[i] != ev.cycles - cycles0) {
      rep.fail("topology " + std::to_string(i) +
               ": simulated cycles differ between runs");
    }
  }
  rep.layer["bus.transactions_per_call"] =
      static_cast<double>(ev.transactions) / static_cast<double>(ev.calls);
  rep.layer["bus.stall_cycles_per_call"] =
      static_cast<double>(ev.stalls) / static_cast<double>(ev.calls);
  rep.counts.emplace_back("topologies", std::to_string(kEvidenceOps));
  rep.counts.emplace_back("calls", std::to_string(ev.calls));
  rep.counts.emplace_back("sim_cycles", std::to_string(ev.cycles));
  rep.counts.emplace_back("transactions", std::to_string(ev.transactions));
  rep.counts.emplace_back("stall_cycles", std::to_string(ev.stalls));
  rep.counts.emplace_back("bridge_grants", std::to_string(ev.bridge_grants));
  rep.counts.emplace_back("result_digest", hex64(ev.digest.value()));
  return rep;
}

}  // namespace perfbench
