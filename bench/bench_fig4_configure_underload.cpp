// Reproduces Figure 4: underload per second for the configure workloads, on
// all four paper machines, with CFS and Nest under both governors. As in the
// paper, underload is based on a single run (seed 11).
//
// The grid, formats, and seeds live in scenarios/fig4.json; this binary is a
// thin wrapper so `bench_fig4_configure_underload` and
// `nestsim_run scenarios/fig4.json` print byte-identical tables.

#include "src/scenario/runner.h"

int main() { return nestsim::RunScenarioFileMain("fig4.json"); }
