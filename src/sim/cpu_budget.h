// The host CPUs a process may keep busy, shared out between the threads that
// run simulations.
//
// Two kinds of thread draw on one budget. The campaign pool
// (src/campaign/) holds one CPU for each thread it runs jobs on, all of
// them before any starts (a Hold). The domain group's windowed executor
// (src/sim/domain_group.h) borrows what is left for helper threads of one
// run (a Loan). A loan never takes a CPU a hold or another loan holds, so a
// campaign that already fills the host runs every fleet on the serial loop
// instead of oversubscribing it.

#ifndef NESTSIM_SRC_SIM_CPU_BUDGET_H_
#define NESTSIM_SRC_SIM_CPU_BUDGET_H_

namespace nestsim {

// CPUs in this process's sched_getaffinity mask, capped by the cgroup v2
// cpu.max quota of its cgroup and every ancestor where one is set; at least
// 1. Read once per process.
int UsableCpus();

class CpuBudget {
 public:
  // Holds `cpus` of the budget until destroyed, whether or not that many
  // are free.
  class Hold {
   public:
    explicit Hold(int cpus);
    ~Hold();
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    int cpus_;
  };

  // Takes up to `want` CPUs that no hold or loan holds, for helper threads
  // of the calling thread, until destroyed. When nothing is held, the
  // calling thread runs outside any campaign and holds one CPU for itself
  // first; otherwise it is a campaign thread, whose CPU the campaign's hold
  // already counts. cpus() may be 0.
  class Loan {
   public:
    explicit Loan(int want);
    ~Loan();
    Loan(const Loan&) = delete;
    Loan& operator=(const Loan&) = delete;

    int cpus() const { return cpus_; }

   private:
    int cpus_ = 0;
    int held_ = 0;  // cpus_, plus the caller's CPU when nothing was held
  };

  // CPUs held by holds and loans right now.
  static int Held();
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_SIM_CPU_BUDGET_H_
