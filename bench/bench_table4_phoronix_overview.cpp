// Reproduces Table 4: overview of the Phoronix multicore results — how many
// of the ~222 tests fall into each speedup band (>20% slower, 5-20% slower,
// within ±5%, 5-20% faster, >20% faster) for CFS-performance and
// Nest-schedutil vs CFS-schedutil.
//
// The population is the 27 Figure 13 tests plus seeded synthetic tests of the
// same styles (the real suite is a proprietary download; see DESIGN.md).
//
// The grid, formats, and seeds live in scenarios/table4.json; this binary is
// a thin wrapper so `bench_table4_phoronix_overview` and
// `nestsim_run scenarios/table4.json` print byte-identical tables.

#include "src/scenario/runner.h"

int main() { return nestsim::RunScenarioFileMain("table4.json"); }
