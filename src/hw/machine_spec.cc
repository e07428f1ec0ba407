#include "src/hw/machine_spec.h"

#include <cstdio>
#include <cstdlib>

namespace nestsim {

TurboLadder::TurboLadder(std::vector<double> ghz_by_active_count)
    : ghz_(std::move(ghz_by_active_count)) {}

double TurboLadder::CapGhz(int active_physical_cores) const {
  if (ghz_.empty()) {
    return 0.0;
  }
  if (active_physical_cores <= 1) {
    return ghz_.front();
  }
  const size_t idx = static_cast<size_t>(active_physical_cores - 1);
  if (idx >= ghz_.size()) {
    return ghz_.back();
  }
  return ghz_[idx];
}

namespace {

// Expands a run-length ladder {count, ghz}... into a per-count table.
std::vector<double> Ladder(std::initializer_list<std::pair<int, double>> runs) {
  std::vector<double> out;
  for (const auto& [count, ghz] : runs) {
    for (int i = 0; i < count; ++i) {
      out.push_back(ghz);
    }
  }
  return out;
}

MachineSpec Xeon6130(int sockets) {
  MachineSpec m;
  m.name = sockets == 2 ? "intel-6130-2s" : "intel-6130-4s";
  m.cpu_model = "Intel Xeon Gold 6130";
  m.microarch = "Skylake";
  m.num_sockets = sockets;
  m.physical_cores_per_socket = 16;
  m.threads_per_core = 2;
  m.min_freq_ghz = 1.0;
  m.nominal_freq_ghz = 2.1;
  // Paper Table 3: 1-2: 3.7, 3-4: 3.5, 5-8: 3.4, 9-12: 3.1, 13-16: 2.8.
  m.turbo = TurboLadder(Ladder({{2, 3.7}, {2, 3.5}, {4, 3.4}, {4, 3.1}, {4, 2.8}}));
  m.power_management = PowerManagement::kSpeedShift;
  m.ramp_up_ghz_per_ms = 2.5;
  m.ramp_down_ghz_per_ms = 1.5;
  m.arrival_activity_floor = 0.45;
  m.freq_update_period = 1 * kMillisecond;
  m.idle_decay_delay = 2 * kMillisecond;
  m.turbo_license_window = 6 * kMillisecond;
  m.autonomy_weight = 1.0;
  m.activity_halflife = 1200 * kMicrosecond;
  m.uncore_watts = 28.0;
  m.package_idle_watts = 26.0;
  m.core_dyn_coeff = 1.35;
  return m;
}

MachineSpec Xeon5218() {
  MachineSpec m;
  m.name = "intel-5218-2s";
  m.cpu_model = "Intel Xeon Gold 5218";
  m.microarch = "Cascade Lake";
  m.num_sockets = 2;
  m.physical_cores_per_socket = 16;
  m.threads_per_core = 2;
  m.min_freq_ghz = 1.0;
  m.nominal_freq_ghz = 2.3;
  // Paper Table 3: 1-2: 3.9, 3-4: 3.7, 5-8: 3.6, 9-12: 3.1, 13-16: 2.8.
  m.turbo = TurboLadder(Ladder({{2, 3.9}, {2, 3.7}, {4, 3.6}, {4, 3.1}, {4, 2.8}}));
  m.power_management = PowerManagement::kSpeedShift;
  m.ramp_up_ghz_per_ms = 2.5;
  m.ramp_down_ghz_per_ms = 1.6;
  m.freq_update_period = 1 * kMillisecond;
  m.idle_decay_delay = 2 * kMillisecond;
  m.turbo_license_window = 6 * kMillisecond;
  m.autonomy_weight = 1.0;
  m.activity_halflife = 1200 * kMicrosecond;
  m.arrival_activity_floor = 0.45;
  m.uncore_watts = 30.0;
  m.package_idle_watts = 28.0;
  m.core_dyn_coeff = 1.35;
  return m;
}

MachineSpec XeonE78870v4() {
  MachineSpec m;
  m.name = "intel-e78870v4-4s";
  m.cpu_model = "Intel Xeon E7-8870 v4";
  m.microarch = "Broadwell";
  m.num_sockets = 4;
  m.physical_cores_per_socket = 20;
  m.threads_per_core = 2;
  m.min_freq_ghz = 1.2;
  m.nominal_freq_ghz = 2.1;
  // Paper Table 3: 1-2: 3.0, 3: 2.8, 4: 2.7, 5-20: 2.6.
  m.turbo = TurboLadder(Ladder({{2, 3.0}, {1, 2.8}, {1, 2.7}, {16, 2.6}}));
  m.power_management = PowerManagement::kSpeedStep;
  // SpeedStep: tick-paced, coarse steps; quick decay on computation gaps
  // (the paper: "prone to using subturbo frequencies whenever there are gaps
  // in the computation").
  m.ramp_up_ghz_per_ms = 0.8;
  m.ramp_down_ghz_per_ms = 0.8;
  m.freq_update_period = 10 * kMillisecond;
  m.idle_decay_delay = 1 * kMillisecond;
  m.turbo_license_window = 10 * kMillisecond;
  m.autonomy_weight = 1.0;
  m.activity_halflife = 8 * kMillisecond;
  m.arrival_activity_floor = 0.25;
  m.idle_drift_ghz_per_ms = 0.25;
  m.uncore_watts = 34.0;
  m.package_idle_watts = 30.0;
  m.core_dyn_coeff = 1.5;
  m.idle_exit_latency = 60 * kMicrosecond;
  return m;
}

MachineSpec Xeon5220() {
  MachineSpec m;
  m.name = "intel-5220-1s";
  m.cpu_model = "Intel Xeon Gold 5220";
  m.microarch = "Cascade Lake";
  m.num_sockets = 1;
  m.physical_cores_per_socket = 18;
  m.threads_per_core = 2;
  m.min_freq_ghz = 1.0;
  m.nominal_freq_ghz = 2.2;
  // Published 5220 ladder (maximum turbo 3.9 GHz, all-core 2.7).
  m.turbo = TurboLadder(Ladder({{2, 3.9}, {2, 3.7}, {4, 3.6}, {4, 3.1}, {6, 2.7}}));
  m.power_management = PowerManagement::kSpeedShift;
  m.ramp_up_ghz_per_ms = 2.5;
  m.ramp_down_ghz_per_ms = 1.6;
  m.freq_update_period = 1 * kMillisecond;
  m.idle_decay_delay = 2 * kMillisecond;
  m.turbo_license_window = 6 * kMillisecond;
  m.autonomy_weight = 1.0;
  m.activity_halflife = 1200 * kMicrosecond;
  m.arrival_activity_floor = 0.45;
  m.uncore_watts = 30.0;
  m.package_idle_watts = 28.0;
  m.core_dyn_coeff = 1.35;
  return m;
}

// Huge-machine presets for rack-scale runs (docs/DOMAINS.md): a
// Platinum-class Skylake part at 4 and 8 sockets, giving 128- and 256-CPU
// single machines. Not a paper machine; the ladder follows the published
// 8153 bins (maximum turbo 2.8 GHz, all-core 2.3).
MachineSpec Xeon8153(int sockets) {
  MachineSpec m;
  m.name = sockets == 4 ? "intel-8153-4s" : "intel-8153-8s";
  m.cpu_model = "Intel Xeon Platinum 8153";
  m.microarch = "Skylake";
  m.num_sockets = sockets;
  m.physical_cores_per_socket = 16;
  m.threads_per_core = 2;
  m.min_freq_ghz = 1.0;
  m.nominal_freq_ghz = 2.0;
  m.turbo = TurboLadder(Ladder({{2, 2.8}, {2, 2.7}, {4, 2.5}, {4, 2.4}, {4, 2.3}}));
  m.power_management = PowerManagement::kSpeedShift;
  m.ramp_up_ghz_per_ms = 2.5;
  m.ramp_down_ghz_per_ms = 1.5;
  m.arrival_activity_floor = 0.45;
  m.freq_update_period = 1 * kMillisecond;
  m.idle_decay_delay = 2 * kMillisecond;
  m.turbo_license_window = 6 * kMillisecond;
  m.autonomy_weight = 1.0;
  m.activity_halflife = 1200 * kMicrosecond;
  m.uncore_watts = 32.0;
  m.package_idle_watts = 30.0;
  m.core_dyn_coeff = 1.35;
  return m;
}

MachineSpec Ryzen4650G() {
  MachineSpec m;
  m.name = "amd-4650g-1s";
  m.cpu_model = "AMD Ryzen 5 PRO 4650G";
  m.microarch = "Zen 2";
  m.num_sockets = 1;
  m.physical_cores_per_socket = 6;
  m.threads_per_core = 2;
  m.min_freq_ghz = 1.4;
  m.nominal_freq_ghz = 3.7;
  // Maximum boost 4.2 GHz, modest taper to the all-core boost.
  m.turbo = TurboLadder(Ladder({{2, 4.2}, {1, 4.1}, {1, 4.0}, {2, 3.9}}));
  m.power_management = PowerManagement::kTurboCore;
  // Zen 2 boosts fast but parks idle cores aggressively, so schedutil pays a
  // large ramp penalty on cold cores relative to the high nominal frequency.
  m.ramp_up_ghz_per_ms = 0.9;
  m.ramp_down_ghz_per_ms = 2.0;
  m.freq_update_period = 1 * kMillisecond;
  m.idle_decay_delay = 1 * kMillisecond;
  m.turbo_license_window = 3 * kMillisecond;
  m.autonomy_weight = 0.95;
  m.activity_halflife = 2 * kMillisecond;
  m.arrival_activity_floor = 0.15;
  m.idle_drift_ghz_per_ms = 0.5;
  m.uncore_watts = 9.0;
  m.package_idle_watts = 7.0;
  m.core_dyn_coeff = 1.2;
  m.smt_throughput = 0.68;
  return m;
}

}  // namespace

const std::vector<MachineSpec>& AllMachines() {
  static const std::vector<MachineSpec>* machines = new std::vector<MachineSpec>{
      Xeon6130(2), Xeon6130(4), Xeon5218(),   XeonE78870v4(),
      Xeon5220(),  Ryzen4650G(), Xeon8153(4), Xeon8153(8)};
  return *machines;
}

const MachineSpec* FindMachine(const std::string& name) {
  for (const MachineSpec& m : AllMachines()) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::vector<std::string> MachineNames() {
  std::vector<std::string> names;
  names.reserve(AllMachines().size());
  for (const MachineSpec& m : AllMachines()) {
    names.push_back(m.name);
  }
  return names;
}

const MachineSpec& MachineByName(const std::string& name) {
  if (const MachineSpec* m = FindMachine(name)) {
    return *m;
  }
  std::fprintf(stderr, "nestsim: unknown machine '%s'. Known machines:\n", name.c_str());
  for (const MachineSpec& m : AllMachines()) {
    std::fprintf(stderr, "  %s (%s)\n", m.name.c_str(), m.cpu_model.c_str());
  }
  std::abort();
}

std::vector<std::string> PaperMachineNames() {
  return {"intel-6130-2s", "intel-6130-4s", "intel-5218-2s", "intel-e78870v4-4s"};
}

}  // namespace nestsim
