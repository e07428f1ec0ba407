#include "src/cluster/router.h"

namespace nestsim {

namespace {

class PassthroughRouter : public RequestRouter {
 public:
  const char* name() const override { return "passthrough"; }
  int Route(const std::vector<Kernel*>& kernels,
            const std::vector<HardwareModel*>& hardware) override {
    (void)kernels;
    (void)hardware;
    return 0;
  }
};

class RoundRobinRouter : public RequestRouter {
 public:
  const char* name() const override { return "round-robin"; }
  int Route(const std::vector<Kernel*>& kernels,
            const std::vector<HardwareModel*>& hardware) override {
    (void)hardware;
    return static_cast<int>(next_++ % kernels.size());
  }

 private:
  uint64_t next_ = 0;
};

// Least runnable tasks wins; ties go to the lowest index so the choice is
// deterministic regardless of machine count. An injection queued on a
// machine but not yet fired counts as the runnable task it is about to
// create, so routing a whole arrival instant before its injections run sees
// the loads that injecting each copy as it was routed would give.
class LeastLoadedRouter : public RequestRouter {
 public:
  const char* name() const override { return "least-loaded"; }
  int Route(const std::vector<Kernel*>& kernels,
            const std::vector<HardwareModel*>& hardware) override {
    (void)hardware;
    int best = 0;
    int best_load = Load(*kernels[0]);
    for (size_t m = 1; m < kernels.size(); ++m) {
      const int load = Load(*kernels[m]);
      if (load < best_load) {
        best = static_cast<int>(m);
        best_load = load;
      }
    }
    return best;
  }

 private:
  static int Load(const Kernel& kernel) {
    return kernel.runnable_tasks() + kernel.pending_injections();
  }
};

// Sends the request to the machine currently drawing the least power — a
// crude "pack onto already-hot machines last" policy that interacts with the
// turbo ladder the same way Nest's primary mask does within one machine.
class PowerAwareRouter : public RequestRouter {
 public:
  const char* name() const override { return "power-aware"; }
  int Route(const std::vector<Kernel*>& kernels,
            const std::vector<HardwareModel*>& hardware) override {
    (void)kernels;
    int best = 0;
    double best_watts = hardware[0]->TotalPowerWatts();
    for (size_t m = 1; m < hardware.size(); ++m) {
      const double watts = hardware[m]->TotalPowerWatts();
      if (watts < best_watts) {
        best = static_cast<int>(m);
        best_watts = watts;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<RequestRouter> MakeRouter(const std::string& name) {
  if (name == "passthrough") {
    return std::make_unique<PassthroughRouter>();
  }
  if (name == "round-robin") {
    return std::make_unique<RoundRobinRouter>();
  }
  if (name == "least-loaded") {
    return std::make_unique<LeastLoadedRouter>();
  }
  if (name == "power-aware") {
    return std::make_unique<PowerAwareRouter>();
  }
  return nullptr;
}

std::vector<std::string> RouterNames() {
  return {"passthrough", "round-robin", "least-loaded", "power-aware"};
}

}  // namespace nestsim
