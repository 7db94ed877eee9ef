#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace afc::perfbench {

/// The input shapes one workload feeds each layer, so a layer's
/// microbenchmark times the calls that workload actually makes.
struct LayerShape {
  std::uint64_t seed = 1;
  /// Live simulator events during the run (the profiler's queue-depth HWM).
  std::size_t queue_depth = 256;
  unsigned node_cores = 12;
  /// OSD page-cache capacity in 4 KiB pages, and the block-key skew of the
  /// workload's offsets (0 = uniform, else the Zipf exponent).
  std::size_t page_cache_pages = 16384;
  double zipf_theta = 0.0;
  unsigned vms = 16;
  std::uint64_t image_size = 0;
  std::uint64_t block_size = 4096;
  std::uint32_t pg_num = 1024;
  unsigned replication = 2;
  unsigned osd_nodes = 4;
  unsigned osds_per_node = 4;
};

/// Host ns per call of each module's hot public functions, timed from
/// outside the library: `{"sim.schedule_run_ns", 41.2}, ...`. Each value is
/// the median of several timed batches.
std::vector<std::pair<std::string, double>> layer_call_costs(const LayerShape& shape);

}  // namespace afc::perfbench
