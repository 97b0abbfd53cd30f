#include "exp/sweeps.h"

namespace recpriv::exp {

using recpriv::core::PrivacyParams;
using recpriv::query::CountQuery;
using recpriv::table::FlatGroupIndex;

std::string AxisName(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kRetentionP:
      return "p";
    case SweepAxis::kLambda:
      return "lambda";
    case SweepAxis::kDelta:
      return "delta";
  }
  return "?";
}

std::vector<double> DefaultAxisValues(SweepAxis axis) {
  if (axis == SweepAxis::kRetentionP) {
    return {0.1, 0.3, 0.5, 0.7, 0.9};
  }
  return {0.1, 0.2, 0.3, 0.4, 0.5};
}

PrivacyParams ParamsAt(SweepAxis axis, double value, size_t m) {
  PrivacyParams params = DefaultParams(m);
  switch (axis) {
    case SweepAxis::kRetentionP:
      params.retention_p = value;
      break;
    case SweepAxis::kLambda:
      params.lambda = value;
      break;
    case SweepAxis::kDelta:
      params.delta = value;
      break;
  }
  return params;
}

ViolationSweep SweepViolations(const FlatGroupIndex& index, SweepAxis axis,
                               const std::vector<double>& values) {
  ViolationSweep sweep;
  sweep.axis_values = values;
  for (double v : values) {
    ViolationPoint point =
        MeasureViolation(index, ParamsAt(axis, v, index.sa_domain()));
    sweep.vg.push_back(point.vg);
    sweep.vr.push_back(point.vr);
  }
  return sweep;
}

Result<ErrorSweep> SweepErrors(const FlatGroupIndex& index,
                               const std::vector<CountQuery>& pool,
                               SweepAxis axis,
                               const std::vector<double>& values, size_t runs,
                               uint64_t seed) {
  ErrorSweep sweep;
  sweep.axis_values = values;
  Rng rng(seed);
  for (double v : values) {
    RECPRIV_ASSIGN_OR_RETURN(
        ErrorPoint point,
        MeasureRelativeError(index, pool,
                             ParamsAt(axis, v,
                                      index.schema()->sa_domain_size()),
                             runs, rng));
    sweep.up_error.push_back(point.up.mean);
    sweep.sps_error.push_back(point.sps.mean);
    sweep.up_se.push_back(point.up.standard_error);
    sweep.sps_se.push_back(point.sps.standard_error);
  }
  return sweep;
}

}  // namespace recpriv::exp
