#include "failure/failure.h"

#include <limits>

#include "common/check.h"
#include "model/system_profile.h"

namespace aic::failure {

FailureSpec FailureSpec::from_total(double total_lambda) {
  auto split = model::split_rate(total_lambda);
  return FailureSpec{{split[0], split[1], split[2]}};
}

FailureInjector::FailureInjector(FailureSpec spec, Rng rng)
    : spec_(spec), rng_(rng) {
  for (double l : spec_.lambda) AIC_CHECK(l >= 0.0);
}

std::uint64_t job_stream_seed(std::uint64_t fleet_seed, std::uint64_t job_id) {
  std::uint64_t state = fleet_seed ^ (job_id * 0x9E3779B97f4A7C15ULL);
  return splitmix64(state);
}

FailureEvent FailureInjector::next_after(double now) {
  const double total = spec_.total();
  if (total <= 0.0) {
    return {std::numeric_limits<double>::infinity(), 0};
  }
  FailureEvent ev;
  ev.time = now + rng_.exponential(total);
  const double u = rng_.uniform() * total;
  if (u < spec_.lambda[0]) {
    ev.level = 1;
  } else if (u < spec_.lambda[0] + spec_.lambda[1]) {
    ev.level = 2;
  } else {
    ev.level = 3;
  }
  return ev;
}

}  // namespace aic::failure
