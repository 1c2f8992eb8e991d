// §2.3 claim: the three-phase Radix/IntroSort is ~30% faster than the
// STL sort on 16-byte key/payload tuples. Real measurements, next to
// the run sort the joins use (SortTuples, default config).
#include <algorithm>
#include <vector>

#include "bench/common.h"
#include "sort/radix_introsort.h"
#include "util/timer.h"

namespace mpsm::bench {
namespace {

double MeasureMs(const std::vector<Tuple>& input,
                 void (*sorter)(Tuple*, size_t), int repeats) {
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    auto data = input;
    WallTimer timer;
    sorter(data.data(), data.size());
    best = std::min(best, timer.ElapsedMillis());
    if (!sort::IsSortedByKey(data.data(), data.size())) {
      std::fprintf(stderr, "sort produced unsorted output!\n");
      std::exit(1);
    }
  }
  return best;
}

void StdSort(Tuple* data, size_t n) {
  std::sort(data, data + n, TupleKeyLess{});
}

void RunSort(Tuple* data, size_t n) { sort::SortTuples(data, n); }

void Main() {
  Banner("Table (§2.3)", "Radix/IntroSort vs std::sort (real times)");

  TablePrinter table;
  table.SetHeader({"tuples", "distribution", "std::sort[ms]",
                   "introsort[ms]", "radix/intro[ms]", "speedup vs stl",
                   "run sort[ms]"});

  const auto topology = numa::Topology::HyPer1();
  for (const size_t n : {BenchRTuples(), BenchRTuples() * 4}) {
    for (const auto dist : {workload::KeyDistribution::kUniform,
                            workload::KeyDistribution::kSkewLowEnd}) {
      workload::DatasetSpec spec;
      spec.r_tuples = n;
      spec.multiplicity = 0;
      spec.r_distribution = dist;
      spec.seed = 42;
      const auto dataset = workload::Generate(topology, 1, spec);
      const auto input = dataset.r.ToVector();

      const double stl_ms = MeasureMs(input, &StdSort, 3);
      const double intro_ms = MeasureMs(input, &sort::IntroSort, 3);
      const double radix_ms = MeasureMs(input, &sort::RadixIntroSort, 3);
      const double run_sort_ms = MeasureMs(input, &RunSort, 3);
      table.AddRow(
          {std::to_string(n),
           dist == workload::KeyDistribution::kUniform ? "uniform"
                                                       : "skew 80:20",
           Ms(stl_ms), Ms(intro_ms), Ms(radix_ms), Ratio(stl_ms, radix_ms),
           Ms(run_sort_ms)});
    }
  }

  table.Print();
  std::printf(
      "\nShape check: the paper reports ~30%% (1.3x) over the STL sort;\n"
      "the MSD radix pass plus introsort should beat std::sort here too.\n");
}

}  // namespace
}  // namespace mpsm::bench

int main() { mpsm::bench::Main(); }
