#include "net/cost_model.h"

#include <algorithm>

namespace trinity::net {

double CostModel::ComputeSeconds(const Meters& meters) const {
  return meters.MaxCpuMicros() / params_.cores_per_machine / 1e6;
}

double CostModel::CommSeconds(const Meters& meters) const {
  double max_bytes = 0.0;
  double max_transfers = 0.0;
  for (int m = 0; m < meters.num_machines(); ++m) {
    const Meters::Machine& nic = meters.machine(m);
    const double bytes = static_cast<double>(nic.bytes_in.load()) +
                         static_cast<double>(nic.bytes_out.load());
    const double transfers = static_cast<double>(nic.transfers_in.load()) +
                             static_cast<double>(nic.transfers_out.load());
    max_bytes = std::max(max_bytes, bytes);
    max_transfers = std::max(max_transfers, transfers);
  }
  const double serialization_us = max_bytes / params_.bandwidth_bytes_per_us;
  const double latency_us = max_transfers * params_.transfer_latency_us /
                            params_.transfer_overlap;
  return (serialization_us + latency_us) / 1e6;
}

}  // namespace trinity::net
