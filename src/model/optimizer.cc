#include "model/optimizer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace aic::model {

OptResult minimize_scalar(const ScalarFn& f, double lo, double hi,
                          int grid_points, int refine_iters) {
  AIC_CHECK(lo > 0.0 && hi > lo && grid_points >= 3);
  // Log-spaced coarse grid (work spans range over orders of magnitude).
  double best_x = lo;
  double best_v = f(lo);
  int best_i = 0;
  const double ratio = std::pow(hi / lo, 1.0 / double(grid_points - 1));
  std::vector<double> xs(grid_points);
  for (int i = 0; i < grid_points; ++i)
    xs[i] = lo * std::pow(ratio, double(i));
  xs.back() = hi;
  for (int i = 0; i < grid_points; ++i) {
    const double v = f(xs[i]);
    if (v < best_v) {
      best_v = v;
      best_x = xs[i];
      best_i = i;
    }
  }
  // Golden-section refinement in the bracketing cells.
  double a = xs[std::max(0, best_i - 1)];
  double b = xs[std::min(grid_points - 1, best_i + 1)];
  const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double c = b - inv_phi * (b - a);
  double d = a + inv_phi * (b - a);
  double fc = f(c), fd = f(d);
  for (int it = 0; it < refine_iters && (b - a) > 1e-9 * b; ++it) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - inv_phi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + inv_phi * (b - a);
      fd = f(d);
    }
  }
  const double mid = 0.5 * (a + b);
  const double fm = f(mid);
  if (fm < best_v) return {mid, fm};
  return {best_x, best_v};
}

double newton_raphson_stationary(const ScalarFn& f, double x0, double lo,
                                 double hi, int max_iters, double tol,
                                 int* iters_out) {
  AIC_CHECK(lo > 0.0 && hi > lo);
  double x = std::clamp(x0, lo, hi);
  int used = max_iters;
  for (int it = 0; it < max_iters; ++it) {
    const double h = std::max(1e-6 * x, 1e-9);
    const double f_plus = f(x + h);
    const double f_minus = f(x - h >= lo ? x - h : lo);
    const double f_mid = f(x);
    const double d1 = (f_plus - f_minus) / (2.0 * h);
    const double d2 = (f_plus - 2.0 * f_mid + f_minus) / (h * h);
    if (std::abs(d1) <= tol) {
      used = it;
      break;
    }
    if (d2 <= 0.0 || !std::isfinite(d2)) {
      // Non-convex locally: take a damped gradient step instead of an NR
      // step, which would head to a maximum.
      x = std::clamp(x - (d1 > 0 ? 0.25 : -0.25) * x, lo, hi);
      continue;
    }
    double next = x - d1 / d2;
    if (!std::isfinite(next)) {
      used = it + 1;
      break;
    }
    next = std::clamp(next, lo, hi);
    if (std::abs(next - x) <= 1e-9 * std::max(1.0, x)) {
      x = next;
      used = it + 1;
      break;
    }
    x = next;
  }
  if (iters_out != nullptr) *iters_out = used;
  return x;
}

OptResult extreme_value_minimum(const ScalarFn& f, double lo, double hi,
                                double x0, EvtDiag* diag) {
  // Boundaries first (the Extreme Value Theorem's frame).
  OptResult best{lo, f(lo)};
  const double f_hi = f(hi);
  if (f_hi < best.value) best = {hi, f_hi};

  // A fixed coarse log grid safeguards the Newton–Raphson seed: the NET^2
  // curve has an infeasibility cliff below w = SF*(c3_prev - c1_prev), and
  // finite-difference NR started inside it can stall on derivative noise.
  // The grid is O(1) work (a dozen chain solves), preserving the paper's
  // online-cost argument.
  constexpr int kCoarse = 12;
  double seed = std::clamp(x0, lo, hi);
  double seed_val = f(seed);
  if (seed_val < best.value) best = {seed, seed_val};
  const double ratio = std::pow(hi / lo, 1.0 / double(kCoarse + 1));
  double x = lo;
  for (int i = 0; i < kCoarse; ++i) {
    x *= ratio;
    const double v = f(x);
    if (v < best.value) best = {x, v};
    if (v < seed_val) {
      seed = x;
      seed_val = v;
    }
  }

  int iters = 0;
  const double x_stat = newton_raphson_stationary(f, seed, lo, hi, 200,
                                                  1e-10, &iters);
  const double f_stat = f(x_stat);
  if (f_stat < best.value) best = {x_stat, f_stat};

  // Bounded polish around the winner. Finite-difference NR can stall on
  // derivative noise a grid cell away from the true minimum (the decider
  // ground-truth test measured up to ~8% NET^2 left on the table), and the
  // bracketing cells may be non-unimodal (the infeasibility cliff, NR
  // stall points), so refine with a dense log grid + golden section over
  // the one-cell neighbourhood. O(100) more chain solves — small next to
  // the NR search itself, preserving the online-cost argument.
  {
    const double a = std::max(lo, best.x / ratio);
    const double b = std::min(hi, best.x * ratio);
    if (b > a) {
      const OptResult polished = minimize_scalar(f, a, b, 24, 48);
      if (polished.value < best.value) best = polished;
    }
  }

  if (diag != nullptr) {
    diag->newton_iters = iters;
    diag->used_boundary = best.x <= lo || best.x >= hi;
  }
  return best;
}

}  // namespace aic::model
