// The periodic DVFS sweep parks settled idle cores and replays the skipped
// sweeps when a parked core is next updated. This pins the replay against a
// reference model that never parks anything: the same busy/idle history on a
// second HardwareModel whose every core is kicked right after each sweep
// (a kick at the sweep's own instant changes nothing, but un-parks the core,
// so the reference visits every core on every sweep). Frequencies, the
// frequency- and speed-change callbacks and the energy meter must match bit
// for bit.

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "src/hw/hardware.h"

namespace nestsim {
namespace {

struct Recorder {
  Recorder(const MachineSpec& spec, bool sweep_every_core) : hw(&engine, spec) {
    hw.set_freq_request_fn([](int) { return 1.2; });
    hw.set_freq_change_fn([this](int phys, double ghz) {
      freq_changes.emplace_back(engine.Now(), phys, ghz);
    });
    hw.set_speed_change_fn([this](int cpu) {
      speed_changes.emplace_back(engine.Now(), cpu, hw.EffectiveSpeedGhz(cpu));
    });
    hw.Start();
    if (sweep_every_core) {
      // Queued after Start()'s first sweep, so it fires right after each one.
      KickAllAt(spec.freq_update_period);
    }
  }

  void KickAllAt(SimTime t) {
    engine.ScheduleAt(t, [this, t] {
      for (int phys = 0; phys < hw.topology().num_physical_cores(); ++phys) {
        hw.KickCpu(hw.topology().CpusOfPhysCore(phys)[0]);
      }
      KickAllAt(t + hw.spec().freq_update_period);
    });
  }

  Engine engine;
  HardwareModel hw;
  std::vector<std::tuple<SimTime, int, double>> freq_changes;
  std::vector<std::tuple<SimTime, int, double>> speed_changes;
};

// One scripted step of the history: at `t`, run `action` on the model. With
// `after_sweep`, the step is queued behind the sweep at `t` (which must be a
// sweep instant) instead of ahead of it.
struct Step {
  SimTime t;
  bool after_sweep;
  std::function<void(HardwareModel&)> action;
};

void Schedule(Recorder& r, const Step& step) {
  if (!step.after_sweep) {
    r.engine.ScheduleAt(step.t, [&r, step] { step.action(r.hw); });
    return;
  }
  // Pushed one nanosecond before `t`, long after the sweep at `t` was queued.
  r.engine.ScheduleAt(step.t - 1, [&r, step] {
    r.engine.ScheduleAt(step.t, [&r, step] { step.action(r.hw); });
  });
}

Step Busy(SimTime t, int cpu, bool busy, bool after_sweep = false) {
  return {t, after_sweep, [cpu, busy](HardwareModel& hw) { hw.SetThreadBusy(cpu, busy); }};
}

Step Kick(SimTime t, int cpu) {
  return {t, false, [cpu](HardwareModel& hw) { hw.KickCpu(cpu); }};
}

void ExpectSameHistory(const MachineSpec& spec, const std::vector<Step>& steps, SimTime end) {
  Recorder parked(spec, /*sweep_every_core=*/false);
  Recorder swept(spec, /*sweep_every_core=*/true);
  for (const Step& step : steps) {
    Schedule(parked, step);
    Schedule(swept, step);
  }
  // Frequencies are compared at every millisecond, between sweeps.
  for (SimTime t = kMillisecond / 2; t < end; t += kMillisecond) {
    parked.engine.RunUntil(t);
    swept.engine.RunUntil(t);
    for (int cpu = 0; cpu < spec.num_sockets * spec.physical_cores_per_socket; ++cpu) {
      ASSERT_EQ(parked.hw.FreqGhz(cpu), swept.hw.FreqGhz(cpu)) << "cpu " << cpu << " t " << t;
    }
  }
  EXPECT_EQ(parked.freq_changes, swept.freq_changes);
  EXPECT_EQ(parked.speed_changes, swept.speed_changes);
  EXPECT_EQ(parked.hw.EnergyJoules(), swept.hw.EnergyJoules());
  EXPECT_FALSE(parked.freq_changes.empty());
  EXPECT_FALSE(parked.speed_changes.empty());
}

constexpr SimDuration kMs = kMillisecond;

// Long parks on the stock preset: a core busy for 30 ms settles at the floor
// about 50 ms after going idle, then sits out well over 1,100 sweeps — far
// enough for its activity EMA (1.2 ms half-life) to reach +0.0 — before it
// is woken at a ragged instant, at a sweep instant ahead of that sweep, and
// at a sweep instant behind it.
TEST(SweepParkTest, LongParksReplayToTheSweptHistory) {
  const MachineSpec spec = MachineByName("intel-5218-2s");
  const std::vector<Step> steps = {
      Busy(0, 0, true),        Busy(30 * kMs, 0, false),
      Busy(0, 1, true),        Busy(30 * kMs, 1, false),
      Busy(0, 2, true),        Busy(30 * kMs, 2, false),
      Busy(0, 3, true),        Busy(20 * kMs, 3, false),
      // Ragged wake after ~1,400 parked sweeps.
      Busy(1500 * kMs + 370 * kMicrosecond, 0, true),
      Busy(1520 * kMs + 10 * kMicrosecond, 0, false),
      // At a sweep instant, ahead of and behind that sweep.
      Busy(1600 * kMs, 1, true),
      Busy(1600 * kMs, 2, true, /*after_sweep=*/true),
      Busy(1630 * kMs, 1, false),
      Busy(1630 * kMs, 2, false),
      // A kick replays and re-parks without a busy transition.
      Kick(1700 * kMs + 123, 3),
      Kick(1750 * kMs, 3),
  };
  ExpectSameHistory(spec, steps, 1800 * kMs);
}

// Short parks where the replayed EMA still matters: with a 40 ms activity
// half-life and a fast idle drift, a core that ran long settles within a few
// milliseconds of going idle with its EMA near 1, and the EMA it wakes with
// (above the arrival floor) sets its frequency target.
TEST(SweepParkTest, ShortParksReplayTheActivityEma) {
  MachineSpec spec = MachineByName("intel-5218-2s");
  spec.activity_halflife = 40 * kMs;
  spec.idle_drift_ghz_per_ms = 5.0;
  const std::vector<Step> steps = {
      Busy(0, 0, true),
      Busy(200 * kMs, 0, false),
      Busy(215 * kMs + 450 * kMicrosecond, 0, true),
      Busy(260 * kMs, 0, false),
      Busy(0, 5, true),
      Busy(180 * kMs, 5, false),
      Busy(197 * kMs, 5, true),
      Busy(230 * kMs, 5, false),
      Busy(0, 6, true),
      Busy(150 * kMs, 6, false),
      Busy(170 * kMs, 6, true, /*after_sweep=*/true),
      Busy(220 * kMs, 6, false),
      Kick(240 * kMs + 1, 6),
  };
  ExpectSameHistory(spec, steps, 300 * kMs);
}

}  // namespace
}  // namespace nestsim
