"""Every layer that takes a claimed metric reads it through the one reader,
`curvature.metric_components`, whose values `curvature._check_metrics`
checks, and names a bad claim with one message; and the argument checks of
the library's smaller entry points raise what they document."""
import ast
import pathlib
import re

import numpy as np
import pytest

from prescribed_ricci import SO3, DiagonalMetric, certify, cli, residual
from prescribed_ricci.cubic import CubicPoly
from prescribed_ricci.curvature import (ricci_diagonal, ricci_koszul,
                                        x_coefficients)
from prescribed_ricci.diagonalize import diagonalize_so3, symmetric_from_upper
from prescribed_ricci.groups import (UnimodularGroup, check_milnor_frame,
                                     check_milnor_frame_many,
                                     structure_constants)
from prescribed_ricci.solver import (_check_slots, classify_signature,
                                     reconstruct_from_p, solve)
from prescribed_ricci.verify import certify_arrays, oracle_residual

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "prescribed_ricci"

INF, NAN = float("inf"), float("nan")
HUGE = 10 ** 400  # an int beyond the float range

BAD_METRICS = {
    "inf": ((INF, 1.0, 1.0),
            "metric components must be finite, got (inf, 1.0, 1.0)"),
    # a metric both non-finite and not positive is named for its sign
    "nan-negative": ((NAN, -1.0, 1.0),
                     "metric components must be positive, got (nan, -1.0, 1.0)"),
    "negative": ((1.0, -1.0, 1.0),
                 "metric components must be positive, got (1.0, -1.0, 1.0)"),
    "int-overflow": ((HUGE, 1, 1),
                     f"metric components must be finite, got ({HUGE}, 1, 1)"),
    "str": ("123", "metric components must be numbers, got '123'"),
    "bytes": (b"123", "metric components must be numbers, got b'123'"),
    "none": ((1, None, 1),
             "metric components must be numbers, got (1, None, 1)"),
    "length": ((1.0, 2.0), "diagonal metric needs exactly three components"),
}

BAD_CONSTANTS = {
    "int-overflow": (HUGE, f"constant c must be a finite number, got {HUGE}"),
    "nan": (NAN, "constant c must be a finite number, got nan"),
    "str": ("x", "constant c must be a finite number, got 'x'"),
}


@pytest.mark.parametrize("v, message", BAD_METRICS.values(),
                         ids=list(BAD_METRICS))
def test_every_layer_names_a_bad_metric_alike(v, message):
    T = (1.0, 1.0, 1.0)
    checks = [lambda: DiagonalMetric(v),
              lambda: certify("so3", v, 1.0, T),
              lambda: residual(SO3, v, 1.0, T),
              lambda: certify_arrays(SO3, [v], [1.0], [T])]
    if isinstance(v, tuple) and [type(x) for x in v] == [float] * 3:
        # the solver's own output check, on three floats: c first, then v
        checks.append(lambda: _check_slots(0, [1.0], [v]))
    for check in checks:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()


@pytest.mark.parametrize("c, message", BAD_CONSTANTS.values(),
                         ids=list(BAD_CONSTANTS))
def test_every_layer_names_a_bad_constant_alike(c, message):
    v = T = (1.0, 1.0, 1.0)
    for check in (lambda: certify("so3", v, c, T),
                  lambda: residual(SO3, v, c, T),
                  lambda: oracle_residual(SO3, np.eye(3), c, T),
                  lambda: certify_arrays(SO3, [v], [c], [T])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()


# the text after `field 'v': ` for each bad metric a --v flag can spell:
# the library's message where the flag's numbers reach the metric reader,
# else the message of the field parse, which reads every entry as a finite
# float first
CLI_METRICS = {
    "negative": ("1.0,-1.0,1.0", BAD_METRICS["negative"][1]),
    "zero": ("1,0,1",
             "metric components must be positive, got (1.0, 0.0, 1.0)"),
    "inf": ("inf,1,1", "non-finite entry 'inf'"),
    "nan-negative": ("nan,-1,1", "non-finite entry 'nan'"),
    "int-overflow": (f"{HUGE},1,1", f"non-finite entry '{HUGE}'"),
    "str": ("123", "expected 3 comma-separated numbers, got '123'"),
    "length": ("1.0,2.0", "expected 3 comma-separated numbers, got '1.0,2.0'"),
}


def test_cli_metric_message_is_the_library_message(capsys):
    for flag, message in CLI_METRICS.values():
        for argv in (["oracle-ricci", "so3", "--v", flag],
                     ["certify", "so3", "--T", "1,1,1", "--v", flag,
                      "--c", "1"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: field 'v': {message}\n"


def test_the_metric_check_is_defined_once():
    # the check and the reader that calls it
    for name in ("_check_metrics", "metric_components"):
        defined = [path.name for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == name]
        assert defined == ["curvature.py"]


TINY = (1e-310, 1e-310, 1e-310)

INVALID_CALLS = {
    "classify-c-overflow": (lambda: classify_signature("so3", TINY),
                            "c = inf is outside the float range "
                            "(|T|_inf ~ 8^-344)"),
    "solve-c-overflow": (lambda: solve("so3", TINY),
                         "c = inf is outside the float range "
                         "(|T|_inf ~ 8^-344)"),
    "metric-length": (lambda: DiagonalMetric((1.0, 2.0)),
                      "diagonal metric needs exactly three components"),
    "ricci-length": (lambda: ricci_diagonal("so3", (1.0, 2.0)),
                     "expected 3 components along the last axis, got (2,)"),
    # a 0-d input has no last axis
    "ricci-0d": (lambda: ricci_diagonal("so3", "123"),
                 "expected 3 components along the last axis, got ()"),
    "x-0d": (lambda: x_coefficients("so3", "123"),
             "expected 3 components along the last axis, got ()"),
    "group-name": (lambda: UnimodularGroup("XX", (0.0, 0.0, 0.0)),
                   "unknown group name 'XX'; expected one of ['E11', 'E2', "
                   "'H3', 'R3', 'SL2', 'SO3']"),
    "frame-shape": (lambda: check_milnor_frame(SO3, np.eye(2)),
                    "basis change must be 3x3, got shape (2, 2)"),
    "cubic-length": (lambda: CubicPoly((1.0, 2.0, 3.0)),
                     "cubic needs four coefficients (a3, a2, a1, a0)"),
    # the six entries are read as a tensor's three are: a str or bytes is
    # not six digits, and no TypeError or OverflowError escapes
    "upper-str": (lambda: symmetric_from_upper("123456"),
                  "upper-triangle entries must be numbers in the float "
                  "range, got '123456'"),
    "upper-bytes": (lambda: symmetric_from_upper(b"123456"),
                    "upper-triangle entries must be numbers in the float "
                    "range, got b'123456'"),
    "upper-none": (lambda: symmetric_from_upper([1, 2, 3, 4, 5, None]),
                   "upper-triangle entries must be numbers in the float "
                   "range, got [1, 2, 3, 4, 5, None]"),
    "upper-scalar": (lambda: symmetric_from_upper(5),
                     "upper-triangle entries must be numbers in the float "
                     "range, got 5"),
    "upper-str-entry": (lambda: symmetric_from_upper([1, 2, 3, 4, 5, "a"]),
                        "upper-triangle entries must be numbers in the "
                        "float range, got [1, 2, 3, 4, 5, 'a']"),
    "upper-int-overflow": (lambda: symmetric_from_upper([1, 2, 3, 4, 5, HUGE]),
                           "upper-triangle entries must be numbers in the "
                           f"float range, got [1, 2, 3, 4, 5, {HUGE}]"),
    "diagonalize-int-overflow": (
        lambda: diagonalize_so3([[HUGE, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "tensor components must be numbers in the float range, got "
        f"[[{HUGE}, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    "diagonalize-str": (
        lambda: diagonalize_so3([[1, 2, "a"], [2, 1, 0], [0, 0, 1]]),
        "tensor components must be numbers in the float range, got "
        "[[1, 2, 'a'], [2, 1, 0], [0, 0, 1]]"),
    # every array reader converts under one try: an int beyond the float
    # range is no OverflowError
    "ricci-int-overflow": (
        lambda: ricci_diagonal("so3", (HUGE, 1, 1)),
        f"metric components must be numbers in the float range, got "
        f"({HUGE}, 1, 1)"),
    "x-int-overflow": (
        lambda: x_coefficients("so3", (HUGE, 1, 1)),
        f"metric components must be numbers in the float range, got "
        f"({HUGE}, 1, 1)"),
    "koszul-int-overflow": (
        lambda: ricci_koszul(structure_constants(SO3),
                             [[HUGE, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "Gram matrix entries must be numbers in the float range, got "
        f"[[{HUGE}, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    "frame-int-overflow": (
        lambda: check_milnor_frame(SO3, [[HUGE, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "basis change entries must be numbers in the float range, got "
        f"[[{HUGE}, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    "frames-int-overflow": (
        lambda: check_milnor_frame_many(
            SO3, [[[HUGE, 0, 0], [0, 1, 0], [0, 0, 1]]]),
        "basis change entries must be numbers in the float range, got "
        f"[[[{HUGE}, 0, 0], [0, 1, 0], [0, 0, 1]]]"),
    "root-int-overflow": (
        lambda: reconstruct_from_p(SO3, (3.0, 2.0, 1.0), HUGE),
        f"root p must be numbers in the float range, got {HUGE}"),
    "cubic-int-overflow": (
        lambda: CubicPoly((1, 0, 0, HUGE)),
        "cubic coefficients must be numbers in the float range, got "
        f"(1, 0, 0, {HUGE})"),
}


@pytest.mark.parametrize("call, message", INVALID_CALLS.values(),
                         ids=list(INVALID_CALLS))
def test_invalid_arguments_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
