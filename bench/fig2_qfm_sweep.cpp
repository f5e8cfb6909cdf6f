// Regenerates paper Fig. 2: success rate of 4-qubit Quantum Fourier
// Multiplication vs 1q/2q gate error rate, AQFT depths {1,2,3,full(=4)} on
// the 5-qubit window cQFTs, operand orders 1:1, 1:2, 2:2.
//
// Note the paper's 'full' row is labeled d=3; see table1_gate_counts.
#include <iostream>

#include "common/shutdown.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace qfab;
  using namespace qfab::bench;

  install_shutdown_latch();
  const CliFlags flags(argc, argv);
  FigureScale scale;
  scale.instances = 8;
  scale.trajectories = 6;
  scale.depths = default_depths_qfm();
  scale.rates_1q_percent = {0.2, 0.4, 0.6, 0.8, 1.0};
  scale.rates_2q_percent = {0.1, 0.25, 0.5, 1.0, 1.5, 2.0};
  if (!parse_scale(flags, scale, /*paper_instances=*/200)) return 2;

  CircuitSpec base;
  base.op = Operation::kMultiply;
  base.n = 4;

  std::cout << "=== Fig. 2: QFM success rates (n = " << base.n << ") ===\n"
            << "Reference lines: current IBM hardware ~0.2% (1q), ~1.0% (2q)."
            << "\n\n";

  const bool complete = run_figure_row(scale, base, {1, 1}, "1to1",
                                       "panels a,b") &&
                        run_figure_row(scale, base, {1, 2}, "1to2",
                                       "panels c,d") &&
                        run_figure_row(scale, base, {2, 2}, "2to2",
                                       "panels e,f");
  if (!complete) {
    std::cout << "interrupted; partial results are journaled"
              << (scale.checkpoint.empty() ? " only with --checkpoint" : "")
              << ".\n";
    return kResumableExitCode;
  }

  std::cout << "Expected shape (paper): much lower success than QFA (far\n"
            << "larger circuits); 2q errors dominate; d=1 hurts at low noise\n"
            << "but overtakes d=2,3 at high error rates; success-vs-rate\n"
            << "transition much sharper than QFA.\n";
  return 0;
}
