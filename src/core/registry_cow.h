#ifndef VDRIFT_CORE_REGISTRY_COW_H_
#define VDRIFT_CORE_REGISTRY_COW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "core/ensemble.h"
#include "core/registry.h"

namespace vdrift::select {

/// \brief A copy of a registry entry that shares its models.
///
/// Models are immutable at serving time (inference is const), so the copy
/// aliases the source's profile, ensemble and query models. Never fails;
/// the Result return is kept for callers that chain it.
Result<ModelEntry> CloneModelEntry(const ModelEntry& entry);

/// \brief One model published into the fleet-shared registry: the entry
/// plus the labeled calibration sample adopting streams need to extend
/// their MSBO calibration. Both are shared, never copied, by every
/// snapshot and every shard that holds the model.
struct PublishedModel {
  ModelEntry entry;
  SharedSample calibration_sample;
};

/// \brief Copy-on-write shared model registry (ROADMAP item 1).
///
/// The fleet's publication channel: a model trained for one stream's drift
/// becomes selectable by every stream. Readers take an immutable snapshot
/// (a shared_ptr to a const vector — O(1), never blocks on writers);
/// writers copy the vector, append, and swap the pointer under the mutex.
/// The swap is the publication point: a snapshot taken before it does not
/// see the new model, one taken after sees it fully — there is no partial
/// state. Publication order is append order, so every consumer that
/// iterates a snapshot adopts models in the same deterministic order.
///
/// Entries are stored as given: the registry shares the caller's model
/// objects, and every shard that adopts an entry runs those same objects.
class CowModelRegistry {
 public:
  CowModelRegistry() : models_(std::make_shared<Models>()) {}

  CowModelRegistry(const CowModelRegistry&) = delete;
  CowModelRegistry& operator=(const CowModelRegistry&) = delete;

  using Models = std::vector<PublishedModel>;
  using Snapshot = std::shared_ptr<const Models>;

  /// The current immutable snapshot. Safe to iterate without locks; later
  /// publications do not mutate it.
  Snapshot TakeSnapshot() const;

  /// Appends `entry` (sharing its models) with its calibration sample
  /// (shared too). First-writer-wins by name: returns false (and publishes
  /// nothing) when a model of the same name is already published.
  [[nodiscard]] bool Publish(const ModelEntry& entry,
                             const SharedSample& calibration_sample);

  /// Index of the published model with this name in the current snapshot,
  /// or -1.
  int FindByName(const std::string& name) const;

  /// Number of published models.
  int size() const;

 private:
  mutable Mutex mutex_;
  Snapshot models_ VDRIFT_GUARDED_BY(mutex_);
};

}  // namespace vdrift::select

#endif  // VDRIFT_CORE_REGISTRY_COW_H_
