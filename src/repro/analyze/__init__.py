"""Static and dynamic analysis for the BPBC reproduction.

Five passes over the artifacts this library builds:

* :mod:`repro.analyze.races` — a happens-before data-race detector
  fed by the SIMT simulator's access-tracing hook;
* :mod:`repro.analyze.lint` — an AST lint of kernel generator
  functions for barrier divergence, non-constant shuffle deltas, and
  shared-memory stripe violations;
* :mod:`repro.analyze.netcheck` — a netlist DAG verifier plus the
  gate-count assertions against the paper's ``46s - 16 + 2e`` table
  and the protein substitution-cell op-count pins;
* :mod:`repro.analyze.contracts` — the cross-layer contract lint:
  every fault-site literal against the catalogue;
* :mod:`repro.analyze.prove` — the exhaustive prover: bit-exact
  equivalence of every shipped cell netlist against the scalar
  reference over the *full* input cube at small widths, plus interval
  bit-width soundness of the ``score_bits`` pairings.

Run the fast passes with ``python -m repro analyze --all``; the
prover with ``python -m repro analyze --prove``.
"""

from .contracts import (FaultSiteUse, analyze_contracts, check_fault_sites,
                        collect_fault_site_uses)
from .drivers import (KernelLaunchPlan, analyze_all, analyze_kernels,
                      analyze_netlists, analyze_plan,
                      shipped_kernel_plans)
from .lint import KernelLintError, lint_kernel
from .netcheck import (check_compiled_cells, check_protein_cells,
                       check_sw_cell_counts, verify_netlist)
from .prove import (MAX_EXHAUSTIVE_BITS, analyze_prove, check_score_widths,
                    check_width_uniformity, input_support, mutate_netlist,
                    prove_equivalence, prove_gotoh_cell, prove_linear_cell)
from .races import RaceTracer, trace_launch
from .report import Diagnostic, Report, Severity

__all__ = [
    "Severity", "Diagnostic", "Report",
    "RaceTracer", "trace_launch",
    "lint_kernel", "KernelLintError",
    "verify_netlist", "check_sw_cell_counts", "check_compiled_cells",
    "check_protein_cells",
    "FaultSiteUse", "collect_fault_site_uses", "check_fault_sites",
    "analyze_contracts",
    "MAX_EXHAUSTIVE_BITS", "prove_equivalence", "input_support",
    "mutate_netlist", "prove_linear_cell", "prove_gotoh_cell",
    "check_score_widths", "check_width_uniformity", "analyze_prove",
    "KernelLaunchPlan", "shipped_kernel_plans", "analyze_plan",
    "analyze_kernels", "analyze_netlists", "analyze_all",
]
