#pragma once

struct FixtureCount {
  int n;
};

// The parameter name `fixture_tally` is exported as a namespace-scope
// name, the way `AerStats* stats = nullptr` exports `stats`.
int fixture_sum(const FixtureCount& c, int* fixture_tally = nullptr);
