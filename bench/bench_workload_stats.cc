// Workload profiler: prints the structural statistics of the synthetic
// data sets that drive every other bench — distinct blocking keys, block
// size distribution, and key survival under perturbation. These are the
// quantities the EXPERIMENTS.md analysis leans on when explaining where a
// measured shape comes from.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"

namespace sketchlink::bench {
namespace {

struct BlockStats {
  size_t distinct = 0;
  size_t max_size = 0;
  double mean_size = 0;
  size_t p99_size = 0;
};

BlockStats Profile(const std::map<std::string, size_t>& blocks,
                   size_t records) {
  BlockStats stats;
  stats.distinct = blocks.size();
  if (blocks.empty()) return stats;
  std::vector<size_t> sizes;
  sizes.reserve(blocks.size());
  for (const auto& [key, count] : blocks) sizes.push_back(count);
  std::sort(sizes.begin(), sizes.end());
  stats.max_size = sizes.back();
  stats.mean_size = static_cast<double>(records) /
                    static_cast<double>(sizes.size());
  stats.p99_size = sizes[sizes.size() * 99 / 100];
  return stats;
}

void Run() {
  Banner("Workload statistics — blocking-key structure per data set",
         "Distinct keys, block sizes, and exact-key survival of perturbed "
         "copies.");

  std::printf("%8s %10s %10s %12s %10s %8s %12s\n", "dataset", "blocking",
              "distinct", "mean_block", "p99_block", "max", "key_survival");
  for (datagen::DatasetKind kind : AllKinds()) {
    const datagen::Workload workload = MakeScaledWorkload(kind, 2000, 8);
    for (const char* blocking : {"standard", "lsh"}) {
      std::unique_ptr<Blocker> blocker;
      if (std::string(blocking) == "standard") {
        blocker = MakeStandardBlocker(kind);
      } else {
        blocker = MakeLshBlocker(kind);
      }
      std::map<std::string, size_t> blocks;
      size_t key_records = 0;
      for (const Record& record : workload.a.records()) {
        for (const std::string& key : blocker->Keys(record)) {
          ++blocks[key];
          ++key_records;
        }
      }
      // Exact-key survival: fraction of A-records sharing at least one key
      // with their source record in Q (the blocking recall ceiling).
      size_t survived = 0;
      for (const Record& copy : workload.a.records()) {
        const Record& source = workload.q[copy.entity_id - 1];
        const auto keys_copy = blocker->Keys(copy);
        const auto keys_source = blocker->Keys(source);
        bool shared = false;
        for (const std::string& key : keys_copy) {
          if (std::find(keys_source.begin(), keys_source.end(), key) !=
              keys_source.end()) {
            shared = true;
            break;
          }
        }
        if (shared) ++survived;
      }
      const BlockStats stats = Profile(blocks, key_records);
      std::printf("%8s %10s %10zu %12.2f %10zu %8zu %11.1f%%\n",
                  std::string(datagen::DatasetKindName(kind)).c_str(),
                  blocking, stats.distinct, stats.mean_size, stats.p99_size,
                  stats.max_size,
                  100.0 * static_cast<double>(survived) /
                      static_cast<double>(workload.a.size()));
    }
  }
  std::printf(
      "\nkey_survival is the recall ceiling of each blocking scheme: no "
      "same-blocking method\ncan exceed it (paper Sec. 7: 'the underlying "
      "blocking method drives the whole linkage\nprocess').\n");
}

}  // namespace
}  // namespace sketchlink::bench

int main(int argc, char** argv) {
  const sketchlink::bench::Flags flags(argc, argv, {});
  sketchlink::bench::Run();
  return 0;
}
