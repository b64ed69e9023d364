#ifndef TRINITY_COMPUTE_TRUNK_OWNERS_H_
#define TRINITY_COMPUTE_TRUNK_OWNERS_H_

#include <string>
#include <vector>

#include "cloud/memory_cloud.h"

namespace trinity::compute {

/// The trunk → owner table frozen when an engine is built, so routing a
/// message is an array load, not a cloud-mutex acquisition. Runs assume
/// stable membership: a crash is caught by CheckHealthy at the next barrier.
class TrunkOwners {
 public:
  explicit TrunkOwners(cloud::MemoryCloud* cloud)
      : cloud_(cloud), owns_trunks_(cloud->num_slaves(), false) {
    for (int t = 0; t < cloud->table().num_slots(); ++t) {
      owner_.push_back(cloud->table().machine_of_trunk(t));
      if (owner_[t] >= 0 && owner_[t] < cloud->num_slaves()) {
        owns_trunks_[owner_[t]] = true;
      }
    }
  }

  MachineId OwnerOf(CellId vertex) const {
    return owner_[cloud_->TrunkOf(vertex)];
  }

  /// Unavailable if a slave that owned a trunk at the freeze is down, so a
  /// run stops cleanly instead of computing on a shrunken cluster. `run`
  /// names the work in the message.
  Status CheckHealthy(const char* run) const {
    for (MachineId m = 0; m < static_cast<int>(owns_trunks_.size()); ++m) {
      if (owns_trunks_[m] && !cloud_->fabric().IsMachineUp(m)) {
        return Status::Unavailable("machine " + std::to_string(m) +
                                   " crashed during the " + run);
      }
    }
    return Status::OK();
  }

 private:
  cloud::MemoryCloud* cloud_;
  std::vector<MachineId> owner_;
  std::vector<bool> owns_trunks_;  ///< Per slave: hosts at least one trunk.
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_TRUNK_OWNERS_H_
