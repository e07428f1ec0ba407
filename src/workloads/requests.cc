#include "src/workloads/requests.h"

#include <cmath>
#include <utility>

namespace nestsim {

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
  }
  return "?";
}

bool ArrivalKindFromName(const std::string& name, ArrivalKind* out) {
  if (name == "poisson") {
    *out = ArrivalKind::kPoisson;
    return true;
  }
  if (name == "bursty") {
    *out = ArrivalKind::kBursty;
    return true;
  }
  return false;
}

// Arrivals by thinning: draw candidates from a homogeneous Poisson process at
// the *peak* rate, then accept each with the ratio of the instantaneous rate
// to the peak. The candidate stream (and thus every draw) depends only on the
// spec and the seed, never on simulation state.
RequestStream::RequestStream(RequestSpec spec, Rng* rng)
    : spec_(std::move(spec)),
      rng_(rng),
      peak_rate_(spec_.arrivals == ArrivalKind::kBursty ? spec_.rate_per_s * spec_.burst_factor
                                                        : spec_.rate_per_s),
      done_(peak_rate_ <= 0.0 || spec_.duration_s <= 0.0) {}

bool RequestStream::Next(std::vector<RequestPart>* out) {
  constexpr double kPi = 3.14159265358979323846;
  while (!done_) {
    t_ += rng_->NextExponential(1.0 / peak_rate_);
    if (t_ >= spec_.duration_s) {
      done_ = true;
      break;
    }
    double accept = 1.0;
    if (spec_.arrivals == ArrivalKind::kBursty) {
      const double phase = std::fmod(t_, spec_.burst_every_s);
      if (phase >= spec_.burst_len_s) {
        accept /= spec_.burst_factor;  // outside the burst: baseline rate
      }
    }
    if (spec_.diurnal_depth > 0.0) {
      accept *= 1.0 - spec_.diurnal_depth * 0.5 *
                          (1.0 + std::cos(2.0 * kPi * t_ / spec_.diurnal_period_s));
    }
    if (!rng_->NextBool(accept)) {
      continue;
    }

    const SimTime arrival = SecondsF(t_);
    const uint64_t req = requests_++;
    const std::string base = spec_.name + "-req" + std::to_string(req);

    ProgramBuilder parent(base);
    parent.ComputeMs(rng_->NextLogNormal(spec_.service_ms, spec_.service_sigma));
    if (spec_.io_pause_ms > 0.0) {
      parent.Sleep(MillisecondsF(rng_->NextExponential(spec_.io_pause_ms)))
          .ComputeMs(rng_->NextLogNormal(spec_.service_ms * 0.3, spec_.service_sigma));
    }
    out->push_back({arrival, req, 0, parent.Build(), base});

    for (int f = 0; f < spec_.fanout; ++f) {
      std::string name = base + ".s" + std::to_string(f + 1);
      ProgramBuilder sub(name);
      sub.ComputeMs(rng_->NextLogNormal(spec_.fanout_service_ms, spec_.service_sigma));
      out->push_back({arrival, req, f + 1, sub.Build(), std::move(name)});
    }
    return true;
  }
  return false;
}

RequestPlan RequestWorkload::BuildPlan(Rng& rng) const {
  RequestPlan plan;
  RequestStream stream(spec_, &rng);
  while (stream.Next(&plan.parts)) {
  }
  plan.requests = stream.requests();
  return plan;
}

void RequestWorkload::Setup(Kernel& kernel, Rng& rng) const {
  Rng wl_rng = rng.Fork();
  const RequestPlan plan = BuildPlan(wl_rng);
  for (const RequestPart& part : plan.parts) {
    kernel.ScheduleInjection(part.arrival, part.program, part.name, tag());
  }
}

}  // namespace nestsim
