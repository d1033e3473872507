// VIOLATION: a baseline-ISA TU includes the shared SIMD header.  Whatever
// it instantiates compiles without the ISA flags, outside the tier the
// dispatcher checks with cpuid.
#include "kernels/kernels_simd.h"

namespace lp {

int ops_lane_count() { return 8; }

}  // namespace lp
