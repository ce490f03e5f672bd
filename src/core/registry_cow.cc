#include "core/registry_cow.h"

#include <utility>

namespace vdrift::select {

Result<ModelEntry> CloneModelEntry(const ModelEntry& entry) {
  return entry;
}

CowModelRegistry::Snapshot CowModelRegistry::TakeSnapshot() const {
  MutexLock lock(&mutex_);
  return models_;
}

bool CowModelRegistry::Publish(const ModelEntry& entry,
                               const SharedSample& calibration_sample) {
  // The name check runs under the lock so two racing publishers of the
  // same name resolve first-writer-wins.
  MutexLock lock(&mutex_);
  for (const PublishedModel& published : *models_) {
    if (published.entry.name == entry.name) return false;
  }
  auto next = std::make_shared<Models>(*models_);
  next->push_back(PublishedModel{entry, calibration_sample});
  models_ = std::move(next);  // the publication point
  return true;
}

int CowModelRegistry::FindByName(const std::string& name) const {
  Snapshot snapshot = TakeSnapshot();
  for (size_t i = 0; i < snapshot->size(); ++i) {
    if ((*snapshot)[i].entry.name == name) return static_cast<int>(i);
  }
  return -1;
}

int CowModelRegistry::size() const {
  return static_cast<int>(TakeSnapshot()->size());
}

}  // namespace vdrift::select
