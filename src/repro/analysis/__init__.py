"""Static analysis over the Fig. 2 IR: linting, dataflow, abstract
interpretation, and pruning.

Pipeline consumers on top of this package:

* :func:`repro.analysis.prune.prune_hole_space` shrinks per-hole
  candidate sets (and hence the SAT indicator space) before
  ``pins.solve`` runs;
* the symbolic executor folds branch guards through
  :mod:`repro.analysis.fold`'s linear forms *and* threads an abstract
  state from :mod:`repro.analysis.absint` to skip statically infeasible
  paths without an SMT feasibility call;
* the constraint checker screens (constraint, candidate) pairs through
  abstract saturation before any full SMT check (DESIGN.md §11), and
  through the linear fold / Fourier–Motzkin engine
  (:mod:`repro.analysis.linear`, DESIGN.md §13);
* the bench harness appends :mod:`repro.analysis.regions`' inferred
  syntactic path ceiling as a never-firing ``paths=`` budget
  (DESIGN.md §15);
* :mod:`repro.analysis.certify` proves the ``P ; P⁻¹`` identity over
  bounded input boxes, and ``validate.roundtrip`` rides it along as a
  pre-check;
* ``pins.template`` / ``pins.task`` fail fast with located
  :class:`~repro.analysis.diagnostics.Diagnostic` objects when a
  template provably cannot write an output the identity spec requires.

``python -m repro.analysis`` (linting, ``certify``, ``unknowns``,
``regions``) and ``scripts/lint_suite.py`` expose the tools on the
command line; the forward-backward unknowns analysis
(:func:`repro.analysis.fwdbwd.analyze_unknowns`) runs there and in
:func:`repro.analysis.lint.lint_unknowns`, never inside ``run_pins``.
"""

from .absint import (
    AbsEnv,
    AnalysisResult,
    BackwardAnalyzer,
    ForwardAnalyzer,
    LoopInfo,
    absint_enabled,
    forward_backward_prove,
    preds_unsat,
    saturate,
)
from .cfg import CFG, Node, build_cfg
from .certify import (
    CertificateReport,
    VariableVerdict,
    certify_benchmark,
    certify_composed,
    certify_suite,
)
from .domains import AbsVal, Congruence, Interval, Sign
from .dataflow import (
    constant_propagation,
    dead_stores,
    definitely_defined,
    live_variables,
    reaching_definitions,
)
from .diagnostics import (
    AnalysisError,
    Diagnostic,
    ERROR,
    INFO,
    WARNING,
    failing,
    has_errors,
    worst_severity,
)
from .fold import Lin, const_expr, const_pred, lin_expr, lin_pred
from .fwdbwd import (
    FeasibleSet,
    FwdBwdReport,
    PairRefutation,
    Refutation,
    analyze_unknowns,
    fold_goal,
    fwdbwd_enabled,
)
from .linear import Affine, LinearRefuter, affine_expr, affine_pred, linear_unsat
from .lint import (check_writable_outputs, lint_program, lint_template,
                   lint_unknowns)
from .prune import (
    PruneReport,
    prune_hole_space,
    static_pruning_enabled,
)
from .sorts import Signature, SortContext, SortError, candidate_fits, infer_expr_sort
from .suitelint import lint_benchmark, lint_suite, run_suite_lint

__all__ = [name for name in dir() if not name.startswith("_")]
