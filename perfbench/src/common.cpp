#include "common.hpp"

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "support/digest64.hpp"
#include "testing/rng.hpp"

namespace perfbench {

void Digest::add(std::string_view bytes) {
  h_ = splice::testing::splitmix64(h_ ^ splice::support::digest64(bytes));
}

void Digest::add(std::uint64_t value) {
  h_ = splice::testing::splitmix64(h_ ^ value ^ 0x9e3779b97f4a7c15ULL);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void Latencies::add(double ns) {
  sum_ns_ += ns;
  if (count_ < kKeep) {
    kept_[count_] = ns;
  } else {
    rng_ = splice::testing::splitmix64(rng_);
    const std::uint64_t j = rng_ % (count_ + 1);
    if (j < kKeep) kept_[j] = ns;
  }
  ++count_;
}

double Latencies::quantile_ms(double q) const {
  const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(count_, kKeep));
  if (n == 0) return 0;
  std::vector<double> v(kept_.begin(), kept_.begin() + static_cast<long>(n));
  // Nearest rank: the smallest sample with at least q of all samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank - 1, n - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx] * 1e-6;
}

void add_snapshot(telemetry::MetricsSnapshot& acc,
                  const telemetry::MetricsSnapshot& s) {
  for (const auto& [k, v] : s.counters) acc.counters[k] += v;
  for (const auto& [k, h] : s.histograms) {
    auto& a = acc.histograms[k];
    a.count += h.count;
    a.sum += h.sum;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      a.buckets[b] += h.buckets[b];
    }
  }
}

double counter_of(const telemetry::MetricsSnapshot& snap, const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : static_cast<double>(it->second);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

void LayerTrace::harvest(const telemetry::Tracer& tracer) {
  std::vector<telemetry::Tracer::SpanRecord> spans = tracer.spans();
  std::unordered_map<std::uint64_t, std::size_t> bench_by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].cat == "bench") bench_by_id[spans[i].id] = i;
  }
  // Direct benchmark-span children of every benchmark span.
  std::unordered_map<std::size_t, std::vector<std::size_t>> children;
  for (const auto& [id, i] : bench_by_id) {
    auto parent = bench_by_id.find(spans[i].parent);
    if (parent != bench_by_id.end()) children[parent->second].push_back(i);
  }
  for (const auto& [id, i] : bench_by_id) {
    const auto& s = spans[i];
    total_ns_[s.name] += static_cast<double>(s.dur_ns);
    ++count_[s.name];
    for (const auto& [key, value] : s.args) arg_sum_[s.name + "/" + key] += value;

    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    auto kids = children.find(i);
    if (kids != children.end()) {
      for (std::size_t k : kids->second) {
        const std::uint64_t a = std::max(spans[k].start_ns, s.start_ns);
        const std::uint64_t b = std::min(spans[k].start_ns + spans[k].dur_ns,
                                         s.start_ns + s.dur_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t end = 0;
    for (const auto& [a, b] : iv) {
      const std::uint64_t from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    self_ns_[layer_of(s.name)] +=
        static_cast<double>(s.dur_ns) - static_cast<double>(covered);
  }
}

double LayerTrace::total_us(const std::string& name) const {
  auto it = total_ns_.find(name);
  return it == total_ns_.end() ? 0 : it->second * 1e-3;
}

std::uint64_t LayerTrace::count(const std::string& name) const {
  auto it = count_.find(name);
  return it == count_.end() ? 0 : it->second;
}

double LayerTrace::self_us(const std::string& layer) const {
  auto it = self_ns_.find(layer);
  return it == self_ns_.end() ? 0 : it->second * 1e-3;
}

std::uint64_t LayerTrace::arg_sum(const std::string& name,
                                  const std::string& arg) const {
  auto it = arg_sum_.find(name + "/" + arg);
  return it == arg_sum_.end() ? 0 : it->second;
}

TraceChunk::TraceChunk() : tracer_(std::make_unique<telemetry::Tracer>()) {
  telemetry::Tracer::install(tracer_.get());
  installed_ = true;
}

TraceChunk::~TraceChunk() {
  if (installed_) telemetry::Tracer::install(nullptr);
}

void TraceChunk::finish(LayerTrace& into, std::string* chrome_json) {
  telemetry::Tracer::install(nullptr);
  installed_ = false;
  into.harvest(*tracer_);
  if (chrome_json != nullptr && chrome_json->empty()) {
    *chrome_json = tracer_->chrome_trace_json();
  }
}

void Report::fail(const std::string& why) {
  correct = false;
  if (problems.size() < 8) problems.push_back(why);
}

void Report::account(const PhaseResult& phase) {
  attempted += phase.ops;
  failed += phase.failed;
  if (phase.failed != 0) correct = false;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s.empty() ? "unknown" : s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string fingerprint_json(const fs::path& output_dir) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
     << json_escape(cpu_model()) << "\", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"";
  if (!output_dir.empty()) {
    bool mem = false;
    const std::string type = fs_type(output_dir, &mem);
    os << ", \"output_fs\": \"" << type
       << "\", \"output_memory_backed\": " << (mem ? "true" : "false");
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
