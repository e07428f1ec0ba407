// Reproduces Figure 10: DaCapo speedups vs CFS-schedutil on all four
// machines. The paper's shape: single-task apps (batik, fop, jython, ...)
// within +-5%; high-underload apps (h2, tradebeans, graphchi-eval,
// tomcat-eval) gain substantially with Nest.
//
// The grid, formats, and seeds live in scenarios/fig10.json; this binary is a
// thin wrapper so `bench_fig10_dacapo_speedup` and
// `nestsim_run scenarios/fig10.json` print byte-identical tables.

#include "src/scenario/runner.h"

int main() { return nestsim::RunScenarioFileMain("fig10.json"); }
