/// slipflow_worker — one rank of the parallel LBM over ShmComm.
/// Launched by transport::launch_workers; see sim/worker.cpp for flags.

#include "sim/worker.hpp"

int main(int argc, char** argv) {
  return slipflow::sim::worker_main(argc, argv);
}
