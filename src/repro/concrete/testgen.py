"""Concrete test-case generation from SMT models (Section 2.5).

When PINS finishes (or refutes a candidate), the solver's model of a path
condition restricted to version-0 input variables is a concrete input that
drives execution down that path.  The paper reports these tests in Table 3
and uses them for manual validation; here they also feed the fast
screening loop in ``pins.solve``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..smt.models import Model
from ..smt.terms import Op
from .values import ConcreteArray


def env_inputs_from_model(model: Model) -> Dict[str, Any]:
    """Concrete version-0 values for *all* variables in a model.

    Used to generalize refutations of termination constraints, whose
    universally quantified variables are arbitrary program states rather
    than program inputs.
    """
    out: Dict[str, Any] = {}
    for term, value in model.int_values.items():
        if term.op == Op.VAR and term.payload.endswith("#0"):
            out[term.payload[:-2]] = value
    for term, contents in model.arrays.items():
        if term.op == Op.VAR and term.payload.endswith("#0"):
            arr = ConcreteArray(default=0)
            for i, v in contents.items():
                arr = arr.set(i, v)
            out[term.payload[:-2]] = arr
    return out


def freeze_input(inputs: Mapping[str, Any]) -> tuple:
    """A hashable key for deduplicating test inputs."""
    parts = []
    for name in sorted(inputs):
        value = inputs[name]
        if isinstance(value, ConcreteArray):
            parts.append((name, tuple(sorted(value.contents.items())), value.default))
        elif isinstance(value, (list, tuple)):
            parts.append((name, tuple(value)))
        else:
            parts.append((name, value))
    return tuple(parts)
