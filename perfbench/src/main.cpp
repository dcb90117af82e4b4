// Benchmark driver entry point.
//
//   menshen_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--inject-faults 1] [--out-dir <dir>]
//                     [--one-tenant-per-shard 1]
//
// Prints progress and diagnostics on stderr and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}: the
// gated end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1.  Each run also writes that object, with every metric set
// it has (the ungated end-to-end ones included), to
// <out-dir>/result_<workload>_seed<n>_trace<t>.json, and a traced run
// dumps its spans to <out-dir>/spans_<workload>_seed<n>.jsonl.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: menshen_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--inject-faults 1] "
               "[--out-dir <dir>] [--one-tenant-per-shard 1]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600)
        Usage("--seconds takes a number in (0, 600]");
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) Usage("--trace takes 0 or 1");
    } else if (a == "--inject-faults") {
      o.inject_faults = std::strcmp(v, "1") == 0;
    } else if (a == "--one-tenant-per-shard") {
      o.one_tenant_per_shard = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      Usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string ResultJson(const RunResult& r, const std::vector<Metric>& ms) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(ms) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::u64 process_start_ns = perfbench::NowNs();
  const Options opt = ParseArgs(argc, argv);

  using Runner = RunResult (*)(const Options&, perfbench::u64);
  const std::map<std::string, Runner> workloads = {
      {"calc4_stream_96B", &perfbench::RunCalc4Stream},
      {"router_zipf_imix", &perfbench::RunRouterZipfImix},
      {"apps8_batched_churn", &perfbench::RunApps8BatchedChurn},
      {"netchain_3hop_egress", &perfbench::RunNetchain3HopEgress},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) Usage(("unknown workload " + opt.workload).c_str());

  RunResult r;
  try {
    r = it->second(opt, process_start_ns);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s threw: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& p : r.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::fprintf(stderr, "%s seed=%llu trace=%d attempted=%llu failed=%llu\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? 1 : 0,
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const Metric& m : r.end_to_end)
    std::fprintf(stderr, "  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  for (const Metric& m : r.ungated)
    std::fprintf(stderr, "  %-44s %14.4f %s (not gated)\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  for (const Metric& m : r.per_layer)
    std::fprintf(stderr, "  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());

  mkdir(opt.out_dir.c_str(), 0755);
  const std::string tag = opt.workload + "_seed" + std::to_string(opt.seed);
  if (opt.trace && !perfbench::DumpSpans(opt.out_dir + "/spans_" + tag + ".jsonl"))
    std::fprintf(stderr, "warning: could not write the span dump\n");
  if (std::FILE* f = std::fopen((opt.out_dir + "/result_" + tag + "_trace" +
                                 (opt.trace ? "1" : "0") + ".json")
                                    .c_str(),
                                "w")) {
    std::vector<Metric> all = r.end_to_end;
    all.insert(all.end(), r.ungated.begin(), r.ungated.end());
    all.insert(all.end(), r.per_layer.begin(), r.per_layer.end());
    std::fprintf(f, "%s\n", ResultJson(r, all).c_str());
    std::fclose(f);
  }

  std::printf("%s\n",
              ResultJson(r, opt.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
