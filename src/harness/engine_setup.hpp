#pragma once
/// \file engine_setup.hpp
/// \brief Harness-internal: the one way every runner (measure_*,
/// run_distributed_amg) turns a MeasureConfig into a simulation engine.
/// Not part of the public harness API.

#include "harness/measure.hpp"
#include "simmpi/engine.hpp"

namespace harness::detail {

/// The simulated machine of `cfg` over `nranks` ranks: region size,
/// regions per node and switch hierarchy.  Throws simmpi::SimError naming
/// the field when `regions_per_node` does not tile `nranks`.
simmpi::Machine machine_for(int nranks, const MeasureConfig& cfg);

/// Engine options of `cfg` (scheduler width).
simmpi::Engine::Options engine_opts(const MeasureConfig& cfg);

/// Throw simmpi::SimError naming the field when `cfg` sets `faults` or
/// enables `reliability`: only measure_pattern{,_dense} honour them, and
/// `who` would otherwise silently run fault-free.
void reject_faults(const MeasureConfig& cfg, const char* who);

}  // namespace harness::detail
