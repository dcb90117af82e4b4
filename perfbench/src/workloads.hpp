// The benchmark's workloads.  Each builds its dataplane and traffic from
// the seed, runs the measured phase and checks every output.
#pragma once

#include "harness.hpp"

namespace perfbench {

RunResult RunCalc4Stream(const Options& opt, u64 process_start_ns);
RunResult RunRouterZipfImix(const Options& opt, u64 process_start_ns);
RunResult RunApps8BatchedChurn(const Options& opt, u64 process_start_ns);
RunResult RunNetchain3HopEgress(const Options& opt, u64 process_start_ns);

}  // namespace perfbench
