// ANT's "flint" adaptive data type (Guo et al., MICRO 2022), modelled as a
// posit-style unary-exponent + integer-mantissa composite with a per-tensor
// scale: small magnitudes get int-like uniform resolution, large magnitudes
// get float-like exponential steps.  This is the stand-in for ANT in the
// format comparison (see README.md, "Substrate substitutions"); its value
// lattice matches flint's "float for large / int for small" behaviour.
#pragma once

#include <span>
#include <string>

#include "core/number_format.h"

namespace lp {

class FlintFormat final : public EnumeratedFormat {
 public:
  FlintFormat(int n, double scale);

  /// Scale chosen so the largest flint code reaches the data's max |x|.
  [[nodiscard]] static FlintFormat calibrated(int n, std::span<const float> data);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int bits() const override { return n_; }

 private:
  int n_;
  double scale_;
};

}  // namespace lp
