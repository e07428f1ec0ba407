#include "src/sim/cpu_budget.h"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>

namespace nestsim {

namespace {

std::mutex g_mu;
int g_held = 0;  // CPUs held by holds and loans, process-wide

// The tightest cgroup v2 cpu.max quota on this process's cgroup and its
// ancestors, in whole CPUs rounded up, or 0 when none is set.
int CgroupCpuLimit() {
  std::ifstream cgroup("/proc/self/cgroup");
  std::string line;
  std::string path;
  bool unified = false;
  while (std::getline(cgroup, line)) {
    if (line.rfind("0::", 0) == 0) {
      path = line.substr(3);
      unified = true;
      break;
    }
  }
  if (!unified) {
    return 0;
  }
  if (path == "/") {
    path.clear();
  }
  int limit = 0;
  for (;;) {
    std::ifstream max("/sys/fs/cgroup" + path + "/cpu.max");
    std::string quota;
    long long period = 0;
    if (max >> quota >> period && quota != "max" && period > 0) {
      const long long us = std::atoll(quota.c_str());
      if (us > 0) {
        const int cpus = static_cast<int>((us + period - 1) / period);
        limit = limit == 0 ? cpus : std::min(limit, cpus);
      }
    }
    if (path.empty()) {
      return limit;
    }
    const size_t slash = path.find_last_of('/');
    path.resize(slash == std::string::npos ? 0 : slash);
  }
}

}  // namespace

int UsableCpus() {
  static const int cpus = [] {
    int n = 1;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      n = std::max(1, CPU_COUNT(&set));
    }
    const int limit = CgroupCpuLimit();
    return limit > 0 ? std::min(n, limit) : n;
  }();
  return cpus;
}

CpuBudget::Hold::Hold(int cpus) : cpus_(cpus) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_held += cpus_;
}

CpuBudget::Hold::~Hold() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_held -= cpus_;
}

CpuBudget::Loan::Loan(int want) {
  const int usable = UsableCpus();
  std::lock_guard<std::mutex> lock(g_mu);
  const int self = g_held == 0 ? 1 : 0;
  cpus_ = std::clamp(usable - g_held - self, 0, std::max(want, 0));
  held_ = cpus_ + self;
  g_held += held_;
}

CpuBudget::Loan::~Loan() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_held -= held_;
}

int CpuBudget::Held() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_held;
}

}  // namespace nestsim
