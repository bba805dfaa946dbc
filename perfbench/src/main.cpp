// spca_perfbench: runs one workload of the interval benchmark and prints its
// result as the last line of stdout (see perfbench/README.md).
//
//   spca_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--data-dir <dir>] [--backend <kind>] [--lanes <n>]
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"
#include "par/thread_pool.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "spca_perfbench: %s\nusage: spca_perfbench --workload "
               "abilene-sim|abilene-tcp|wide-sim|replay-ingest --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--backend "
               "exact|warm|rsvd|fd] [--lanes N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--data-dir") {
        options.data_dir = value;
      } else if (flag == "--backend") {
        options.backend = value;
      } else if (flag == "--lanes") {
        options.lanes = std::stoul(value);
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");

  using Runner = perfbench::Outcome (*)(const perfbench::Options&);
  const std::map<std::string, Runner> workloads = {
      {"abilene-sim", perfbench::run_abilene_sim},
      {"abilene-tcp", perfbench::run_abilene_tcp},
      {"wide-sim", perfbench::run_wide_sim},
      {"replay-ingest", perfbench::run_replay_ingest},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage("unknown workload");
  if (options.lanes < 1 || options.lanes > 64) return usage("bad --lanes");

  try {
    spca::set_global_threads(options.lanes);
    const perfbench::Outcome outcome = it->second(options);
    std::printf("lanes: %zu\nbuild_type: %s\n", spca::global_threads(),
                PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", perfbench::to_json(outcome).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spca_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
