// Table 1 — PTQ accuracy on CNNs (ResNet18, ResNet50, MobileNetV2):
// baseline FP plus EMQ / HAWQ-V3 / AFP / ANT / BREC-Q stand-ins and LPQ.
//
// Competitor rows are *measured stand-ins* of each method's data type and
// bit-allocation policy on this repo's substrate (README.md, "Substrate
// substitutions"); the paper's reported numbers are printed alongside
// for reference.
// Absolute model sizes differ (the zoo is width-scaled); the reproduction
// targets are the accuracy ordering and the accuracy-vs-FP deltas.
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "util/table.h"

namespace {

struct PaperRow {
  const char* method;
  const char* wa;
  double size_mb;
  double top1;
};

void run_model(const std::string& name, double paper_baseline,
               const std::vector<PaperRow>& paper_rows) {
  using namespace lp;
  using namespace lp::bench;

  print_banner(std::cout, "Table 1 — " + name);
  WorkbenchOptions wopts;
  wopts.target_fp_accuracy = paper_baseline / 100.0;
  Workbench wb = make_workbench(name, wopts);

  Table measured({"Method", "W/A", "Size(MB)", "Top-1(%)", "vs FP"});
  auto add = [&](const MethodResult& r) {
    auto row = to_row(r);
    row.push_back(Table::num(r.top1 - 100.0 * wb.fp_accuracy, 2));
    measured.add_row(std::move(row));
  };

  MethodResult base;
  base.method = "Baseline (FP32)";
  base.wa = "32/32";
  base.size_mb = static_cast<double>(wb.model.weight_param_count()) * 4 / 1e6;
  base.top1 = 100.0 * wb.fp_accuracy;
  add(base);
  add(run_mixed_int(wb, "EMQ*", /*abits=*/4));
  add(run_uniform_int(wb, "HAWQ-V3*", 4, 4));
  add(run_adaptivfloat(wb, "AFP*"));
  add(run_flint(wb, "ANT*"));
  add(run_mixed_int(wb, "BREC-Q*", /*abits=*/8));
  add(run_lpq(wb, /*transformer=*/false, /*hardware_preset=*/false));
  measured.print(std::cout);

  Table paper({"Method (paper)", "W/A", "Size(MB)", "Top-1(%)"});
  for (const auto& pr : paper_rows) {
    paper.add_row({pr.method, pr.wa, Table::num(pr.size_mb, 2),
                   Table::num(pr.top1, 2)});
  }
  std::cout << "\npaper reference (ImageNet, full-size models):\n";
  paper.print(std::cout);
}

}  // namespace

int main() {
  run_model("resnet18", 71.08,
            {{"Baseline", "32/32", 44.60, 71.08},
             {"EMQ", "MP/4", 5.50, 70.12},
             {"HAWQ-V3", "4/4", 5.81, 68.45},
             {"ANT", "MP/MP", 5.87, 70.30},
             {"BREC-Q", "MP/8", 5.10, 68.88},
             {"LPQ (ours)", "MP4.2/MP5.5", 4.10, 70.30}});
  run_model("resnet50", 77.72,
            {{"Baseline", "32/32", 97.80, 77.72},
             {"EMQ", "MP/5", 17.86, 76.70},
             {"HAWQ-V3", "MP/MP", 18.70, 75.39},
             {"AFP", "MP4.8/MP", 13.20, 76.09},
             {"ANT", "MP/MP", 14.54, 76.70},
             {"BREC-Q", "MP/8", 13.15, 76.45},
             {"LPQ (ours)", "MP5.3/MP5.9", 14.00, 76.98}});
  run_model("mobilenetv2", 72.49,
            {{"Baseline", "32/32", 13.40, 72.49},
             {"EMQ", "MP/8", 1.50, 70.75},
             {"HAWQ-V3", "MP/MP", 1.68, 70.84},
             {"AFP", "MP4.8/MP", 1.94, 70.91},
             {"ANT", "MP/MP", 1.84, 70.74},
             {"BREC-Q", "MP/8", 1.30, 68.99},
             {"LPQ (ours)", "MP4.1/MP4.98", 1.30, 71.20}});
  return 0;
}
