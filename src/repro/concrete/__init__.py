"""Concrete execution: interpreter, values, and test-case generation."""

from .interp import AssumeFailed, InterpError, Interpreter, OutOfFuel, run_path
from .testgen import freeze_input
from .values import ConcreteArray, coerce_input, default_value

__all__ = [name for name in dir() if not name.startswith("_")]
