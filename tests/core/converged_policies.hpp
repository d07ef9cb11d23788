// Converged policies of the repository benchmark's two workloads (the
// configurations of perfbench/perfbench.cpp), solved from scratch by the
// single-process driver on one worker thread, for tests that need a real
// solved policy: the shock-class gathers and the accuracy goldens.
#pragma once

#include <memory>

#include "core/time_iteration.hpp"
#include "irbc/irbc_model.hpp"
#include "olg/calibration.hpp"
#include "olg/olg_model.hpp"

namespace hddm::core::testing {

/// IRBC with N countries on the adaptive grid of the irbc workload
/// (levels 2..5, eps 1e-2, tolerance 1e-5).
inline irbc::IrbcModel irbc_model(int countries) {
  irbc::IrbcCalibration cal;
  cal.countries = countries;
  return irbc::IrbcModel(cal);
}

inline TimeIterationOptions irbc_options() {
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.refine_epsilon = 1e-2;
  opts.max_level = 5;
  opts.tolerance = 1e-5;
  opts.max_iterations = 200;
  opts.threads = 1;
  return opts;
}

/// Reduced OLG, A = 8 with 2 x 2 shocks, on the regular level-3 grid of the
/// olg workload (tolerance 1e-4).
inline olg::OlgModel olg_model() {
  return olg::OlgModel(olg::build_economy(olg::reduced_calibration(8, 2, 2)));
}

inline TimeIterationOptions olg_options() {
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_level = 3;
  opts.tolerance = 1e-4;
  opts.max_iterations = 60;
  opts.threads = 1;
  return opts;
}

}  // namespace hddm::core::testing
