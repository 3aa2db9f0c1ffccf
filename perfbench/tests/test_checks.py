"""The output check trips on an injected wrong output."""

import numpy as np
import pytest

from perfbench.checks import Checker, Reference, bitwise_equal, \
    build_reference
from perfbench.workloads import load_repro


@pytest.fixture(scope="module")
def rp():
    return load_repro()


@pytest.fixture(scope="module")
def case(rp):
    fields = rp.make_fields(rp.SubGrid(8, 8, 8), seed=3)
    inputs = {k: fields[k]
              for k in rp.vortex.EXPRESSION_INPUTS["q_criterion"]}
    pinned = rp.DerivedFieldEngine("cpu", "fusion", backend="vectorized")
    ref = build_reference(rp, pinned, "q_criterion", inputs)
    engine = rp.DerivedFieldEngine("cpu", "fusion")
    report = engine.execute(rp.EXPRESSIONS["q_criterion"], inputs)
    return ref, report


class _Stream:
    def __init__(self):
        self.text = ""

    def write(self, text):
        self.text += text


def test_compiled_output_passes(case):
    ref, report = case
    assert ref.triple == (7, 1, 1)
    checker = Checker(stream=_Stream())
    assert checker.check("ok", report, ref)
    assert (checker.attempted, checker.failed) == (1, 0)


def test_one_ulp_change_fails_and_is_printed(case):
    ref, report = case
    report.output = report.output.copy()
    report.output[5] = np.nextafter(report.output[5], np.inf)
    stream = _Stream()
    checker = Checker(stream=stream)
    assert not checker.check("wrong", report, ref)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "wrong" in stream.text and "pinned" in stream.text


def test_wrong_triple_and_missing_output_fail(case):
    ref, report = case
    checker = Checker(stream=_Stream())
    assert not checker.check("triple", report,
                             Reference(ref.output, (1, 1, 1)))
    report.output = None
    assert not checker.check("none", report, ref)
    checker.refused("refused", "overloaded")
    assert (checker.attempted, checker.failed) == (3, 3)


def test_bitwise_equal_distinguishes_signed_zero():
    assert bitwise_equal(np.array([0.0]), np.array([0.0]))
    assert not bitwise_equal(np.array([0.0]), np.array([-0.0]))
    assert not bitwise_equal(np.array([1.0]), np.array([1.0], np.float32))


def test_reference_must_match_numpy_formula(rp):
    fields = rp.make_fields(rp.SubGrid(4, 4, 4), seed=1)
    inputs = {k: fields[k]
              for k in rp.vortex.EXPRESSION_INPUTS["velocity_magnitude"]}

    class Skewed:
        """A pinned engine whose output is off by 1e-6 relative."""

        def __init__(self):
            self._inner = rp.DerivedFieldEngine("cpu", "fusion",
                                                backend="vectorized")

        def execute(self, expression, fields):
            report = self._inner.execute(expression, fields)
            report.output = report.output * (1 + 1e-6)
            return report

    with pytest.raises(AssertionError, match="NumPy reference"):
        build_reference(rp, Skewed(), "velocity_magnitude", inputs)
