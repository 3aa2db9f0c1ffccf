"""Output checks, run outside every timed region.

Each operation's output must be

* bitwise equal to a pinned ``backend="vectorized"`` engine (the clsim
  interpreter plan) run on the same inputs;
* carry the same Table II triple (device writes, device reads, kernel
  executions) as that interpreter run.

The pinned outputs themselves are checked once, when the references are
built, against the NumPy formulas of :mod:`repro.analysis.vortex` within
a tolerance.  An output bitwise equal to a pinned output that meets the
tolerance meets it too, so every operation is held to all three checks.
"""

from __future__ import annotations

import sys

import numpy as np

# Pinned outputs vs the NumPy reference formulas (float64 fields).
RTOL = 1e-9
ATOL_SCALE = 1e-9         # absolute tolerance, relative to max |reference|


class Reference:
    """What one (inputs, field) operation must produce."""

    __slots__ = ("output", "triple")

    def __init__(self, output: np.ndarray, triple: tuple):
        self.output = output
        self.triple = triple


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes (NaN payloads and signed zeros
    included)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return bool(np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def reference_formula(rp, field: str, inputs: dict) -> np.ndarray:
    """The NumPy formula of ``field`` from :mod:`repro.analysis.vortex`."""
    vortex = rp.vortex
    args = [inputs[k] for k in vortex.EXPRESSION_INPUTS[field]]
    return getattr(vortex, f"{field}_reference")(*args)


def build_reference(rp, pinned, field: str, inputs: dict) -> Reference:
    """Run the pinned interpreter engine and hold its output to the NumPy
    formula; raises ``AssertionError`` when the formula disagrees."""
    report = pinned.execute(rp.EXPRESSIONS[field], inputs)
    output = np.array(report.output, copy=True)
    formula = reference_formula(rp, field, inputs)
    atol = ATOL_SCALE * max(1.0, float(np.max(np.abs(formula))))
    if not np.allclose(output, formula, rtol=RTOL, atol=atol):
        worst = float(np.max(np.abs(output - formula)))
        raise AssertionError(
            f"pinned {field} output differs from the NumPy reference "
            f"by up to {worst:.3e}")
    return Reference(output, report.counts.as_row())


class Checker:
    """Counts operations and the ones whose result was wrong or missing.

    ``check`` takes an :class:`ExecutionReport` (or ``None`` for an
    operation that produced none) and the :class:`Reference` it must
    match; every mismatch is printed to standard error.
    """

    MAX_PRINTED = 20

    def __init__(self, stream=None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._stream = sys.stderr if stream is None else stream

    def check(self, label: str, report, ref: Reference) -> bool:
        self.attempted += 1
        problem = None
        if report is None or report.output is None:
            problem = "no output"
        elif not bitwise_equal(report.output, ref.output):
            problem = "output differs from the pinned interpreter run"
        elif report.counts.as_row() != ref.triple:
            problem = (f"Table II triple {report.counts.as_row()} != "
                       f"interpreter {ref.triple}")
        if problem is None:
            return True
        self.fail(label, problem)
        return False

    def fail(self, label: str, problem: str) -> None:
        """Count one failed operation (refused, timed out, unresolved,
        failed, or wrong) whose attempt is already counted."""
        self.failed += 1
        if len(self.failures) < self.MAX_PRINTED:
            line = f"check failed: {label}: {problem}"
            self.failures.append(line)
            print(line, file=self._stream)

    def refused(self, label: str, problem: str) -> None:
        """An operation that never produced a report to check."""
        self.attempted += 1
        self.fail(label, problem)
