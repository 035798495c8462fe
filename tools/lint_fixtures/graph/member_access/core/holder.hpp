#pragma once
#include "core/tally.hpp"

struct FixtureHolder {
  FixtureCount count;
  int fixture_tally() const { return count.n; }
};
