// The direct include of core/tally.hpp contributes nothing: a member
// access does not count as a use of its exported `fixture_tally`.
#include "core/holder.hpp"
#include "core/tally.hpp"

namespace datc::core {
int fixture_stale(const FixtureHolder& h) { return h.fixture_tally(); }
}  // namespace datc::core
