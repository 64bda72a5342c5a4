#include "host_clock.h"

#include <sys/resource.h>
#include <time.h>

#include <map>
#include <vector>

namespace evc::stack {

namespace {

int64_t ReadClock(clockid_t id) {
  timespec ts{};
  // evc-lint: allow(wall-clock) reason=host cost is what this bench measures; never reaches sim state
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t CpuNowNs() { return ReadClock(CLOCK_PROCESS_CPUTIME_ID); }

int64_t WallNowNs() { return ReadClock(CLOCK_MONOTONIC); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int64_t CalibrationCpuNs() {
  // Small enough (about 1.5 MiB at peak) to stay under every workload's own
  // peak RSS, so calibrating never sets peak_rss_mb.
  std::vector<uint64_t> words(size_t{1} << 17);
  std::map<uint64_t, uint64_t> ordered;
  uint64_t x = 1;
  const int64_t start = CpuNowNs();
  for (int pass = 0; pass < 32; ++pass) {
    for (size_t i = 0; i < words.size(); ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      words[(x >> 40) & (words.size() - 1)] += x;
    }
  }
  for (int i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ordered[x >> 44] += x;
    if (ordered.size() > 8000) ordered.erase(ordered.begin());
  }
  const int64_t elapsed = CpuNowNs() - start;
  // Consume the results so the kernel cannot be optimized away.
  return elapsed + static_cast<int64_t>((words[x & 7] ^ ordered.size()) & 1);
}

}  // namespace evc::stack
