// perfbench: the service benchmark. One run serves one named workload
// over the real TCP front end (server and clients in this process),
// checks that what it served is correct, and prints its metrics; the last
// line of stdout is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans-dir DIR] [--out FILE] [--git-commit SHA]
//             [--closed-loop]
//   perfbench --list-workloads
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the load
// twice (untraced, then with client spans), then the per-layer ladder,
// and reports the per-layer metrics. A failed correctness check exits 1
// without a result line.

#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/exact_overlap.h"
#include "ladder.h"
#include "load.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  /// Runs W2's sessions closed-loop to measure its capacity.
  bool closed_loop = false;
  std::string spans_dir;
  std::string out;
  std::string git_commit = "unknown";
};

/// Samples a p99 must leave beyond it.
constexpr size_t kTailSamples = 10;

/// Tuples replayed per ladder rung (a tenth of it in smoke mode).
constexpr size_t kLadderTuples = 100000;

std::string Num(double v) {
  std::ostringstream s;
  s.precision(10);
  s << v;
  return s.str();
}

std::string JsonString(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& m, const std::vector<std::string>& names) {
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& [value, unit] = m.at(names[i]);
    out += (i ? ", " : "") + JsonString(names[i]) + ": {\"value\": " +
           Num(value) + ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Median and high percentile of one latency list, with sample counts.
/// With `windows` (one entry per sample), the high percentile is the
/// median over those windows of each window's percentile, so one
/// disturbed second of a long open-loop run does not decide it. Every
/// percentile taken must leave kTailSamples beyond it unless `lenient`.
suj::Status AddLatencies(const std::string& prefix, std::vector<double> ms,
                         const std::vector<int32_t>& windows, double high,
                         bool lenient, Metrics* m,
                         std::vector<std::string>* lines) {
  if (ms.empty()) return suj::Status::Internal(prefix + ": no samples");
  const std::string hi = std::to_string(static_cast<int>(high * 100));
  const std::string name = prefix + "_p" + hi + "_ms";
  size_t beyond = 0;
  double high_value = 0;
  std::string how;
  if (!windows.empty()) {
    std::map<int32_t, std::vector<double>> by_window;
    for (size_t i = 0; i < ms.size(); ++i) by_window[windows[i]].push_back(ms[i]);
    std::vector<double> per_window;
    beyond = SIZE_MAX;
    for (auto& [w, v] : by_window) {
      std::sort(v.begin(), v.end());
      per_window.push_back(Percentile(v, high));
      beyond = std::min(beyond, SamplesBeyond(v.size(), high));
    }
    high_value = Median(per_window);
    how = " (median of " + std::to_string(per_window.size()) +
          " one-second windows; fewest samples beyond p" + hi + " in a window: " +
          std::to_string(beyond) + ")";
  }
  std::sort(ms.begin(), ms.end());
  if (windows.empty()) {
    beyond = SamplesBeyond(ms.size(), high);
    high_value = Percentile(ms, high);
    how = ", " + std::to_string(beyond) + " samples beyond p" + hi;
  }
  m->Set(prefix + "_p50_ms", Percentile(ms, 0.5), "ms");
  m->Set(name, high_value, "ms");
  lines->push_back(prefix + " latency: n=" + std::to_string(ms.size()) + how);
  if (beyond < kTailSamples && !lenient) {
    return suj::Status::Internal(
        name + " rests on " + std::to_string(beyond) +
        " samples beyond it (need >= " + std::to_string(kTailSamples) +
        "); lengthen the run");
  }
  return suj::Status::OK();
}

int Run(const Args& args) {
  const WorkloadShape* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  WorkloadShape shape = *found;
  if (args.closed_loop) shape.open_loop = false;
  auto fail = [](const std::string& what, const suj::Status& st) {
    std::cerr << "perfbench: " << what << ": " << st.ToString() << "\n";
    return 1;
  };

  // Inputs first: nothing below this line generates data.
  auto inputs_or = MakeInputs(shape, args.seed, args.seconds);
  if (!inputs_or.ok()) return fail("inputs", inputs_or.status());
  const Inputs inputs = std::move(inputs_or).value();

  auto served_or = Served::Start(shape, inputs, args.seed);
  if (!served_or.ok()) return fail("server", served_or.status());
  Served& served = **served_or;

  auto setup = served.TimeSetup();
  if (!setup.ok()) return fail("setup", setup.status());
  const suj::UnionEstimates estimates0 = served.plan()->estimates();

  SpanRecorder spans;
  std::vector<SessionRecord> sessions;
  auto run_phase = [&](double seconds, size_t min_answers,
                       SpanRecorder* rec) {
    auto load = served.RunLoad(seconds, min_answers, rec);
    if (load.ok()) {
      for (auto& s : load->sessions) sessions.push_back(s);
    }
    return load;
  };
  // The untraced run's closed loops collect enough answers for a p99
  // with kTailSamples beyond it, even if that outlasts --seconds.
  const size_t min_answers = args.trace || args.smoke ? 0 : 100 * kTailSamples;
  auto main_load = run_phase(args.trace ? args.seconds / 2 : args.seconds,
                             min_answers, nullptr);
  if (!main_load.ok()) return fail("load", main_load.status());
  suj::Result<LoadResult> traced_load = suj::Status::Internal("not run");
  if (args.trace) {
    traced_load = run_phase(args.seconds / 2, 0, &spans);
    if (!traced_load.ok()) return fail("traced load", traced_load.status());
  }
  const double peak_rss_mb = PeakRssMb();
  const LoadResult& load = *main_load;

  // Correctness, outside every timed phase.
  std::string check_report;
  if (auto st = served.CheckReplay(sessions, &check_report); !st.ok()) {
    return fail("correctness check FAILED", st);
  }
  auto exact = suj::ExactOverlapCalculator::Create(inputs.data.joins);
  if (!exact.ok()) return fail("exact union", exact.status());
  const double union_size = static_cast<double>((*exact)->UnionSize());
  exact->reset();
  const double rel_err =
      std::abs(estimates0.union_size_eq1 - union_size) / union_size;

  Metrics m;
  std::vector<std::string> lines;
  m.Set("setup_s", Median(*setup), "s");
  lines.push_back("setup: " + std::to_string(setup->size()) +
                  " wire Prepare repetitions, median reported");
  m.Set("tuples_per_s", load.tuples / load.wall_s, "tuples/s");
  // Traced runs report per-layer metrics only, so their short load
  // phases are not held to the tail-sample rule.
  if (auto st = AddLatencies("req", load.req_ms, load.req_window, 0.99,
                             args.smoke || args.trace, &m, &lines);
      !st.ok()) {
    return fail("latency", st);
  }
  m.Set("peak_rss_mb", peak_rss_mb, "MB");
  // The end-to-end metrics BENCHMARK.json bounds. The rest are reported
  // with every run but not gated: req_p99_ms of the closed loops rests on
  // ~1,000 samples and moves by a third between runs on a shared 4-core
  // machine, the apply latencies exist on one workload only, and the
  // others read 0 on a healthy run or under exact warm-up.
  const std::vector<std::string> gated = {"setup_s", "tuples_per_s",
                                          "req_p50_ms", "peak_rss_mb"};
  if (!load.apply_ms.empty()) {
    if (auto st = AddLatencies("apply", load.apply_ms, {}, 0.90, true, &m,
                               &lines);
        !st.ok()) {
      return fail("apply latency", st);
    }
  }
  m.Set("error_rate",
        load.attempted ? static_cast<double>(load.failed + load.shed) /
                             load.attempted
                       : 0,
        "ratio");
  m.Set("union_size_rel_err", rel_err, "ratio");
  {
    std::vector<double> late = load.late_ms;
    std::sort(late.begin(), late.end());
    m.Set("gen_late_p99_ms", late.empty() ? 0 : Percentile(late, 0.99), "ms");
  }

  Metrics layers;
  std::vector<std::string> ladder_report, rungs;
  if (args.trace) {
    const size_t budget = args.smoke ? kLadderTuples / 10 : kLadderTuples;
    if (auto st = RunLadder(served, spans, budget, &layers, &rungs,
                            &ladder_report);
        !st.ok()) {
      return fail("ladder", st);
    }
    if (rungs != LadderRungs()) {
      return fail("ladder", suj::Status::Internal("not every rung ran"));
    }
    const LoadResult& t = *traced_load;
    const double untraced_tps = load.tuples / load.wall_s;
    const double traced_tps = t.tuples / t.wall_s;
    std::vector<double> a = load.req_ms, b = t.req_ms;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    // Cost ratio either way: above 1 means tracing slowed the run.
    layers.Set("trace.overhead_ratio",
               shape.open_loop ? Percentile(b, 0.5) / Percentile(a, 0.5)
                               : untraced_tps / traced_tps,
               "ratio");
    std::vector<double> late = t.late_ms;
    std::sort(late.begin(), late.end());
    layers.Set("gen.late_ms", late.empty() ? 0 : Percentile(late, 0.99), "ms");
    layers.Set("service.admission_wait_share",
               t.admission_admitted > 0
                   ? t.admission_waited / t.admission_admitted
                   : 0,
               "ratio");
    layers.Set("core.union_size_rel_err", rel_err, "ratio");
    if (!args.spans_dir.empty()) {
      const std::string path = args.spans_dir + "/" + shape.name + "-seed" +
                               std::to_string(args.seed) + ".jsonl";
      if (!spans.WriteJsonLines(path)) {
        std::cerr << "perfbench: could not write spans to " << path << "\n";
        return 1;
      }
      lines.push_back("spans: " + path);
    }
  }

  const double bytes_per_tuple =
      load.tuples ? static_cast<double>(load.bytes) / load.tuples : 0;
  const std::string context =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(Compiler()) +
      ", \"git_commit\": " + JsonString(args.git_commit) +
      ", \"workload\": " + JsonString(shape.name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + Num(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"union_size\": " + Num(union_size) +
      ", \"bytes_per_tuple\": " + Num(bytes_per_tuple) +
      ", \"open_loop_rps\": " + Num(shape.open_loop ? shape.aggregate_rps : 0) +
      "}";

  // Human-readable report, then the context line, then the result.
  std::cout << "== " << shape.name << " seed=" << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  for (const std::string& l : lines) std::cout << "  " << l << "\n";
  for (const std::string& l : load.per_connection) {
    std::cout << "  connection " << l << "\n";
  }
  std::cout << "  " << check_report << "\n";
  std::cout << "  attempted " << load.attempted << ", failed " << load.failed
            << ", shed " << load.shed << ", " << load.tuples << " tuples in "
            << load.wall_s << " s\n";
  for (const std::string& name : m.order()) {
    std::cout << "  " << name << " = " << Num(m.at(name).first) << " "
              << m.at(name).second << "\n";
  }
  for (const std::string& l : ladder_report) std::cout << "  ladder " << l << "\n";
  for (const std::string& name : layers.order()) {
    std::cout << "  " << name << " = " << Num(layers.at(name).first) << " "
              << layers.at(name).second << "\n";
  }
  std::string rungs_json = "[";
  for (size_t i = 0; i < rungs.size(); ++i) {
    rungs_json += (i ? ", " : "") + JsonString(rungs[i]);
  }
  rungs_json += "]";
  std::cout << "context " << context << "\n";
  if (args.trace) std::cout << "rungs " << rungs_json << "\n";

  const std::string metrics_json =
      args.trace ? MetricsJson(layers, layers.order()) : MetricsJson(m, gated);
  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "{\"context\": " << context << ", \"rungs\": " << rungs_json
        << ", \"metrics\": "
        << (args.trace ? metrics_json : MetricsJson(m, m.order())) << "}\n";
  }
  const uint64_t attempted = load.attempted + (args.trace ? traced_load->attempted : 0);
  const uint64_t failed = load.failed + load.shed +
                          (args.trace ? traced_load->failed + traced_load->shed : 0);
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << metrics_json
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::stoull(value());
    else if (a == "--seconds") args.seconds = std::stod(value());
    else if (a == "--trace") args.trace = value() != "0";
    else if (a == "--smoke") args.smoke = true;
    else if (a == "--closed-loop") args.closed_loop = true;
    else if (a == "--spans-dir") args.spans_dir = value();
    else if (a == "--out") args.out = value();
    else if (a == "--git-commit") args.git_commit = value();
    else if (a == "--list-workloads") {
      for (const auto& w : perfbench::Workloads()) std::cout << w.name << "\n";
      return 0;
    }
    else {
      std::cerr << "unknown flag " << a << "\n";
      return 2;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  return perfbench::Run(args);
}
