// Fig. 1(b) — relative (decimal) accuracy vs magnitude for LP against
// AdaptivFloat and standard posit, demonstrating LP's distribution-aware
// properties: tapered accuracy whose peak the scale factor moves and whose
// shape the regime cap controls, versus AF's flat profile that dies
// outside its calibrated range.
#include <cmath>
#include <iostream>

#include "core/accuracy_profile.h"
#include "core/lp_format.h"
#include "formats/adaptivfloat.h"
#include "formats/posit.h"
#include "util/table.h"

int main() {
  using namespace lp;
  print_banner(std::cout, "Fig. 1(b) — relative accuracy vs magnitude");

  const LPFormat lp_centered(LPConfig{8, 1, 3, 0.0});
  const LPFormat lp_shifted(LPConfig{8, 1, 3, 6.0});   // peak moved to 2^-6
  const LPFormat lp_wide(LPConfig{8, 1, 7, 0.0});      // wide tapering
  const PositFormat posit(8, 1);
  const AdaptivFloatFormat af(8, 4, 7);

  struct Series {
    const char* name;
    const NumberFormat* fmt;
  };
  const Series series[] = {
      {"LP<8,1,3,sf=0>", &lp_centered}, {"LP<8,1,3,sf=6>", &lp_shifted},
      {"LP<8,1,7,sf=0>", &lp_wide},     {"Posit<8,1>", &posit},
      {"AdaptivFloat<8,e4>", &af},
  };

  Table t({"log2|x|", series[0].name, series[1].name, series[2].name,
           series[3].name, series[4].name});
  for (int l2 = -16; l2 <= 16; l2 += 2) {
    std::vector<std::string> row{Table::num(l2, 0)};
    for (const auto& s : series) {
      const double acc = decimal_accuracy_at(*s.fmt, std::exp2(l2));
      row.push_back(Table::num(acc, 2));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  // Programmatic shape checks mirroring the paper's claims.
  const double lp_at_center = decimal_accuracy_at(lp_centered, 1.0);
  const double lp_at_tail = decimal_accuracy_at(lp_centered, std::exp2(-12));
  const double lp_shift_peak = decimal_accuracy_at(lp_shifted, std::exp2(-6));
  const double af_in = decimal_accuracy_at(af, 1.0);
  const double af_out = decimal_accuracy_at(af, std::exp2(14));
  const bool tapered = lp_at_center > lp_at_tail;
  const bool movable = std::fabs(lp_shift_peak - lp_at_center) < 0.2;
  const bool af_flat = af_in > 0.8 && af_out < 0.3;
  std::cout << "\nshape checks (paper Fig. 1(b)):\n"
            << "  tapered:   LP acc at 2^0 (" << Table::num(lp_at_center, 2)
            << ") > at 2^-12 (" << Table::num(lp_at_tail, 2) << ")  "
            << (tapered ? "[OK]" : "[MISMATCH]") << '\n'
            << "  movable:   LP<sf=6> acc at 2^-6 ("
            << Table::num(lp_shift_peak, 2) << ") ~ LP<sf=0> at 2^0  "
            << (movable ? "[OK]" : "[MISMATCH]") << '\n'
            << "  AF flat:   in-range acc " << Table::num(af_in, 2)
            << ", out-of-range " << Table::num(af_out, 2) << "  "
            << (af_flat ? "[OK]" : "[MISMATCH]") << '\n';
  // Non-zero on a mismatch, so the claims gate (ctest claims_fig1b) fails.
  return tapered && movable && af_flat ? 0 : 1;
}
