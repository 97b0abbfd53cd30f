// Parameter sweeps behind Figures 2-5: vary one of {p, lambda, delta}
// while the others stay at the paper defaults, and report the violation
// rates (Figures 2 & 4) or the UP/SPS relative query errors (Figures 3 & 5)
// at each point.

#pragma once

#include <string>
#include <vector>

#include "exp/experiment.h"

namespace recpriv::exp {

/// Which privacy parameter the sweep varies.
enum class SweepAxis { kRetentionP, kLambda, kDelta };

/// Human-readable axis name ("p", "lambda", "delta").
std::string AxisName(SweepAxis axis);

/// Paper sweep values (Table 6): p in {0.1..0.9}, lambda/delta in
/// {0.1..0.5}.
std::vector<double> DefaultAxisValues(SweepAxis axis);

/// Returns the default params with `axis` set to `value`.
recpriv::core::PrivacyParams ParamsAt(SweepAxis axis, double value, size_t m);

/// One violation sweep: v_g and v_r at each axis value.
struct ViolationSweep {
  std::vector<double> axis_values;
  std::vector<double> vg;
  std::vector<double> vr;
};
ViolationSweep SweepViolations(const recpriv::table::FlatGroupIndex& index,
                               SweepAxis axis,
                               const std::vector<double>& values);

/// One error sweep: mean relative error of UP and SPS at each axis value.
struct ErrorSweep {
  std::vector<double> axis_values;
  std::vector<double> up_error;
  std::vector<double> sps_error;
  std::vector<double> up_se;
  std::vector<double> sps_se;
};
Result<ErrorSweep> SweepErrors(
    const recpriv::table::FlatGroupIndex& index,
    const std::vector<recpriv::query::CountQuery>& pool, SweepAxis axis,
    const std::vector<double>& values, size_t runs, uint64_t seed);

}  // namespace recpriv::exp
