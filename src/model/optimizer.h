// Work-span optimization: offline (grid + golden section) and AIC's online
// local search (Newton–Raphson stationary point + Extreme Value Theorem
// boundary comparison, Section III.E).
#pragma once

#include <functional>

namespace aic::model {

using ScalarFn = std::function<double(double)>;

struct OptResult {
  double x = 0.0;
  double value = 0.0;
};

/// Offline minimization of f over [lo, hi]: logarithmic coarse grid, then
/// golden-section refinement around the best cell. Deterministic; used by
/// the static models ("this can be done numerically, like in earlier
/// work").
OptResult minimize_scalar(const ScalarFn& f, double lo, double hi,
                          int grid_points = 32, int refine_iters = 60);

/// Newton–Raphson search for a stationary point of f (zero of f') starting
/// from x0, with derivatives by central finite differences. Iterates until
/// |f'| <= tol or `max_iters` (the paper bounds it at 200; it converges in
/// a handful of steps in practice). The iterate is clamped to [lo, hi].
/// `iters_out`, when non-null, receives the iteration count consumed.
double newton_raphson_stationary(const ScalarFn& f, double x0, double lo,
                                 double hi, int max_iters = 200,
                                 double tol = 1e-10, int* iters_out = nullptr);

/// Diagnostics of one extreme_value_minimum search, for the decider's
/// observability instruments.
struct EvtDiag {
  /// Newton–Raphson iterations consumed by the stationary-point search.
  int newton_iters = 0;
  /// True when the search settled on a boundary of [lo, hi] — the Extreme
  /// Value Theorem fallback, not the paper's common interior-minimum case.
  bool used_boundary = false;
};

/// AIC's online selection of the local-optimal work span w_L*: by the
/// Extreme Value Theorem the minimum over [lo, hi] is at a boundary or an
/// interior stationary point; compare f at lo, hi, a coarse seed grid, and
/// the NR point, then polish the winner with a bounded golden-section
/// pass (finite-difference NR stalls on derivative noise near flat
/// minima). Total cost stays O(1) chain solves per decision. `diag`, when
/// non-null, receives the search's diagnostics.
OptResult extreme_value_minimum(const ScalarFn& f, double lo, double hi,
                                double x0, EvtDiag* diag = nullptr);

}  // namespace aic::model
