// Only member accesses name `fixture_tally`: no include-transitive demand
// for core/tally.hpp.
#include "core/holder.hpp"

namespace datc::core {
int fixture_read(const FixtureHolder& h) {
  return h.fixture_tally() + (&h)->fixture_tally();
}
}  // namespace datc::core
