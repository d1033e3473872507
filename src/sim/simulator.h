// Cycle-level performance/energy simulator (DnnWeaver-style substitute;
// see README.md, "Substrate substitutions"): schedules a model's
// GEMM workloads onto a weight-stationary systolic accelerator and rolls
// up cycles, memory traffic and energy.
//
// Tiling model: the array processes K_tile = rows reduction rows and
// M_tile = cols * packing / fusion output columns per pass, streaming the
// N dimension; weights are double-buffered so tile loads overlap
// streaming.  Partial sums spill to the on-chip buffer between K tiles.
#pragma once

#include <string>
#include <vector>

#include "lpa/accel_model.h"
#include "nn/node.h"

namespace lp::sim {

struct LayerSim {
  std::string name;
  std::int64_t macs = 0;
  std::int64_t cycles = 0;
  double energy_pj = 0.0;
  int w_bits = 8;   ///< width actually executed (snapped to supported)
  int a_bits = 8;
  double utilization = 0.0;   ///< MACs / (cycles * peak MACs/cycle)
  double sram_bytes = 0.0;    ///< on-chip traffic (weights, acts, psums)
  double dram_bytes = 0.0;    ///< off-chip traffic (weights, acts, outputs)
};

struct SimResult {
  std::string accel_name;
  std::int64_t total_cycles = 0;
  std::int64_t total_macs = 0;
  double time_ms = 0.0;
  double energy_mj = 0.0;
  double avg_power_w = 0.0;
  double gops = 0.0;            ///< effective, 2 ops per MAC
  double gops_per_w = 0.0;
  double tops_per_mm2 = 0.0;    ///< gops / compute area (Table 3 metric)
  std::vector<LayerSim> layers;
};

/// Per-slot precision assignment for a simulation.  Widths are snapped to
/// the accelerator's supported set (smallest supported width >= requested).
struct PrecisionMap {
  std::vector<int> weight_bits;  ///< indexed by weight slot
  std::vector<int> act_bits;     ///< indexed by weight slot

  /// Uniform assignment for `slots` slots.
  static PrecisionMap uniform(std::size_t slots, int w_bits, int a_bits);
};

/// Simulate one model (its traced workloads) on an accelerator.
[[nodiscard]] SimResult simulate(const lpa::AcceleratorModel& accel,
                                 const std::vector<nn::LayerWorkload>& workloads,
                                 const PrecisionMap& precision);

/// Snap a requested width to the smallest supported width >= it (or the
/// largest supported width if none is larger).
[[nodiscard]] int snap_width(const lpa::AcceleratorModel& accel, int bits);

}  // namespace lp::sim
