// Benchmark binary. Built twice from this file:
//   paai_perfbench         end-to-end metrics, plain allocator
//   paai_perfbench_traced  per-layer metrics (PERFBENCH_TRACED), with the
//                          counting allocator and span recording
//
// Usage: paai_perfbench --workload NAME --seed N --seconds S --jobs J
//                       [--scratch-dir DIR] [--trace-out FILE]
// Prints JSON lines; the last one is the result. Exit status: 0 when every
// operation passed its checks, 1 when any failed, 2 on bad usage, 3 when
// built with a sanitizer (timings from such a build are meaningless).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "paai_perfbench: %s\nusage: paai_perfbench --workload "
               "NAME --seed N --seconds S --jobs J [--scratch-dir DIR] "
               "[--trace-out FILE]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef PERFBENCH_TRACED
  constexpr bool kTraced = true;
#else
  constexpr bool kTraced = false;
#endif
  if (!sanitizer_name().empty()) {
    std::fprintf(stderr,
                 "paai_perfbench: refusing to run a %s-sanitizer build\n",
                 std::string(sanitizer_name()).c_str());
    return 3;
  }

  Options opt;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--jobs") {
        opt.jobs = std::stoul(value);
      } else if (flag == "--scratch-dir") {
        opt.scratch_dir = value;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (opt.jobs == 0) return usage("--jobs must be at least 1");
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == opt.workload;
  if (!known) return usage("unknown workload '" + opt.workload + "'");

  std::cout << provenance_json(opt.workload, opt.seed, opt.jobs, kTraced)
            << std::endl;
  Outcome out;
  try {
    if (kTraced) {
      Tracer tracer;
      out = run_traced(opt, tracer);
      if (!trace_out.empty()) {
        std::ofstream f(trace_out, std::ios::trunc);
        tracer.write(f);
        if (!f) {
          std::fprintf(stderr, "paai_perfbench: cannot write %s\n",
                       trace_out.c_str());
          return 1;
        }
      }
    } else {
      out = run_end_to_end(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paai_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : out.notes) std::cout << note << '\n';
  std::cout << result_line(out.failed == 0, out.attempted, out.failed,
                           out.metrics)
            << std::endl;
  return out.failed == 0 ? 0 : 1;
}
