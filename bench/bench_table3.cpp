// Table 3 — accelerator comparison at 28 nm with identical 8x8 arrays and
// 512 kB buffers: component areas, ResNet50 throughput, compute density
// (TOPS/mm^2) and total area for LPA vs ANT vs BitFusion vs AdaptivFloat.
//
// Hardware metrics run on the *full-scale* ImageNet ResNet50 GEMM
// dimensions (bench/workloads.h) at the paper's per-architecture precision
// mixes: LPA executes the ~2.8-avg-bit allocation its LPQ finds on real
// models, ANT/BitFusion their 4/8 INT mixes, AdaptivFloat 8-bit.  The
// algorithmic side (what precision this repo's LPQ finds on the synthetic
// substrate, and at what accuracy) is reported separately below.
#include <iostream>

#include "bench/common.h"
#include "bench/workloads.h"
#include "sim/simulator.h"
#include "util/table.h"

int main() {
  using namespace lp;
  using namespace lp::bench;

  print_banner(std::cout, "Table 3 — accelerator area / throughput @28nm");

  const auto workloads = resnet50_imagenet_workloads();
  const std::size_t slots = workload_slot_count(workloads);

  sim::PrecisionMap lpa_pm;
  lpa_pm.weight_bits = imagenet_allocation(slots, ImageNetAlloc::kLpaMixed);
  lpa_pm.act_bits.assign(slots, 8);
  for (std::size_t s = 0; s < slots; ++s) {
    lpa_pm.act_bits[s] = lpa_pm.weight_bits[s] <= 2 ? 4 : 8;
  }
  sim::PrecisionMap ant_pm;
  ant_pm.weight_bits = imagenet_allocation(slots, ImageNetAlloc::kFourEight);
  ant_pm.act_bits.assign(slots, 8);
  const sim::PrecisionMap bf_pm = ant_pm;
  const auto af_pm = sim::PrecisionMap::uniform(slots, 8, 8);

  Table t({"Architecture", "Compute Area(um2)", "Throughput(GOPS)",
           "Density(TOPS/mm2)", "Total Area(mm2)"});
  double lpa_density = 0.0;
  double ant_density = 0.0;
  auto add = [&](const lpa::AcceleratorModel& accel,
                 const sim::PrecisionMap& pm) {
    const auto r = sim::simulate(accel, workloads, pm);
    if (accel.kind == lpa::AccelKind::kLPA) lpa_density = r.tops_per_mm2;
    if (accel.kind == lpa::AccelKind::kANT) ant_density = r.tops_per_mm2;
    t.add_row({r.accel_name, Table::num(accel.compute_area_um2(), 2),
               Table::num(r.gops, 1), Table::num(r.tops_per_mm2, 2),
               Table::num(accel.total_area_mm2(), 3)});
  };
  add(lpa::make_lpa(), lpa_pm);
  add(lpa::make_ant(), ant_pm);
  add(lpa::make_bitfusion(), bf_pm);
  add(lpa::make_adaptivfloat(), af_pm);
  t.print(std::cout);
  std::cout << "LPA / ANT density ratio: "
            << Table::num(lpa_density / ant_density, 2) << " (paper: 1.91)\n";

  std::cout << "\npaper reference (ResNet50, Synopsys DC + DnnWeaver):\n";
  Table p({"Architecture", "Compute Area(um2)", "Throughput(GOPS)",
           "Density(TOPS/mm2)", "Total Area(mm2)"});
  p.add_row({"LPA", "12078.72", "203.4", "16.84", "4.212"});
  p.add_row({"ANT", "5102.28", "44.95", "8.81", "4.205"});
  p.add_row({"BitFusion", "5093.75", "44.01", "8.64", "4.205"});
  p.add_row({"AdaptivFloat", "23357.14", "63.99", "2.74", "4.223"});
  p.print(std::cout);

  // Substrate-side algorithmic result: what this repo's LPQ hardware
  // preset finds on the synthetic-substrate ResNet50 and at what accuracy.
  WorkbenchOptions wopts;
  wopts.target_fp_accuracy = 0.7772;
  Workbench wb = make_workbench("resnet50", wopts);
  BitAllocation lpq_alloc;
  const auto lpq_row =
      run_lpq(wb, /*transformer=*/false, /*hardware_preset=*/true, &lpq_alloc);
  std::cout << "\nsubstrate LPQ(hw) on resnet50: " << lpq_row.wa << ", top-1 "
            << Table::num(lpq_row.top1, 2) << "% (FP "
            << Table::num(100 * wb.fp_accuracy, 2)
            << "%).  The synthetic substrate needs more weight bits than "
               "real ImageNet models\n(see README.md, \"Substrate "
               "substitutions\"), which is why the hardware rows above "
               "use the paper's allocation.\n";
  return 0;
}
