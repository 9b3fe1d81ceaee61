"""Every layer that takes a metric rejects it through the one check,
`curvature._check_metrics`, with one message; and the argument checks of
the library's smaller entry points raise what they document."""
import ast
import pathlib
import re

import numpy as np
import pytest

from prescribed_ricci import SO3, DiagonalMetric, certify, cli, residual
from prescribed_ricci.cubic import CubicPoly
from prescribed_ricci.curvature import ricci_diagonal
from prescribed_ricci.groups import UnimodularGroup, check_milnor_frame
from prescribed_ricci.solver import _check_slots, classify_signature, solve
from prescribed_ricci.verify import certify_arrays, certify_many

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "prescribed_ricci"

INF, NAN = float("inf"), float("nan")

BAD_METRICS = [
    ((INF, 1.0, 1.0), "metric components must be finite, got (inf, 1.0, 1.0)"),
    # a metric both non-finite and not positive is named for its sign
    ((NAN, -1.0, 1.0),
     "metric components must be positive, got (nan, -1.0, 1.0)"),
    ((1.0, -1.0, 1.0),
     "metric components must be positive, got (1.0, -1.0, 1.0)"),
]


@pytest.mark.parametrize("v, message", BAD_METRICS,
                         ids=["inf", "nan-negative", "negative"])
def test_every_layer_names_a_bad_metric_alike(v, message):
    T = (1.0, 1.0, 1.0)
    for check in (lambda: DiagonalMetric(v),
                  lambda: certify("so3", v, 1.0, T),
                  lambda: residual(SO3, v, 1.0, T),
                  lambda: certify_many(SO3, [v], [1.0], [T]),
                  lambda: certify_arrays(SO3, [v], [1.0], [T]),
                  # the solver's own output check: c first, then v
                  lambda: _check_slots(0, [1.0], [v])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()


def test_cli_metric_message_is_the_library_message(capsys):
    # the one message behind `field 'v'`; a non-finite entry never reaches
    # the metric check, since every number a flag or job holds is finite
    for v, message in BAD_METRICS[2:]:
        flag = ",".join(map(str, v))
        assert cli.main(["oracle-ricci", "so3", "--v", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: field 'v': {message}\n"
    for flag in ("inf,1,1", "nan,-1,1"):
        assert cli.main(["oracle-ricci", "so3", "--v", flag]) == 2
        assert capsys.readouterr().err == (
            f"error: field 'v': non-finite entry '{flag.split(',')[0]}'\n")


def test_the_metric_check_is_defined_once():
    defined = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)
               and node.name == "_check_metrics"]
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
    "group-name": (lambda: UnimodularGroup("XX", (0.0, 0.0, 0.0)),
                   "unknown group name 'XX'; expected one of ['E11', 'E2', "
                   "'H3', 'R3', 'SL2', 'SO3']"),
    "frame-shape": (lambda: check_milnor_frame(SO3, np.eye(2)),
                    "basis change must be 3x3, got shape (2, 2)"),
    "cubic-length": (lambda: CubicPoly((1.0, 2.0, 3.0)),
                     "cubic needs four coefficients (a3, a2, a1, a0)"),
}


@pytest.mark.parametrize("call, message", INVALID_CALLS.values(),
                         ids=list(INVALID_CALLS))
def test_invalid_arguments_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
