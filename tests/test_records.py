import dataclasses

import numpy as np
import pytest

from psdfact.bounds import BoundReport
from psdfact.factorization import FactorizationReport, FitResult, PsdFactorization
from psdfact.pipeline import PipelineConfig
from psdfact.polytopes import HPolytope, SlackMatrix, VPolytope
from psdfact.record import Record
from psdfact.rescaling import CERTIFICATE_TOL, JohnDecomposition, RescaleConfig, RescaleResult
from psdfact.rounding import (
    GridParams,
    MembershipConfig,
    ReconstructionReport,
    RoundedSystem,
    grid_delta,
)


def _grid():
    return GridParams(n=2, r=1, delta=grid_delta(2, 1), big_delta=1.0)


def _factorization():
    return PsdFactorization(row_factors=np.ones((1, 1, 1)), col_factors=np.ones((2, 1, 1)))


# Every field of each record, with a valid value that its constructor keeps as given.
FIELDS = {
    HPolytope: lambda: {"a": np.array([[-1], [1]]), "b": np.array([0, 1])},
    VPolytope: lambda: {"points": np.array([[0], [1]])},
    SlackMatrix: lambda: {"entries": np.array([[0, 1], [1, 0]]),
                          "h": HPolytope(a=[[-1], [1]], b=[0, 1]),
                          "v": VPolytope(points=[[0], [1]])},
    PsdFactorization: lambda: {"row_factors": np.ones((1, 1, 1)),
                               "col_factors": np.ones((2, 1, 1))},
    FactorizationReport: lambda: {"max_abs_residual": 0.5, "residual_location": (1, 0),
                                  "lmax_u": 2.0, "lmax_v": 3.0, "potential": 6.0,
                                  "tol": 1e-8, "passed": False},
    FitResult: lambda: {"factorization": None, "trace": (0.5, 0.25), "reason": "stalled"},
    JohnDecomposition: lambda: {"dim": 1, "ellipsoid_map": np.ones((1, 1)),
                                "points": np.ones((1, 1)), "weights": np.ones(1)},
    RescaleConfig: lambda: {"tol": 0.1},
    RescaleResult: lambda: {"transform_basis": np.eye(1), "transform_scales": np.ones(1),
                            "factorization": _factorization(),
                            "lmax_trajectory": ((1.0, 1.0),), "lmax_u": 1.0, "lmax_v": 1.0,
                            "certificate": True, "iterations": 0, "reduced_dim": 1,
                            "diagnostics": {"start": "input"}},
    GridParams: lambda: {"n": 2, "r": 1, "delta": grid_delta(2, 1) / 2, "big_delta": 4.0,
                         "worst_case": True},
    RoundedSystem: lambda: {"a": np.zeros((3, 2)), "b": np.zeros(3),
                            "factors": np.zeros((3, 1, 1)), "grid": _grid(),
                            "selected": (0,), "error_fnorm": (0.0,), "zeroed": ()},
    MembershipConfig: lambda: {"seed": 5},
    ReconstructionReport: lambda: {"points": np.zeros((1, 2), dtype=int),
                                   "codes": np.array([1]), "violations": np.array([0.1]),
                                   "margins": np.array([0.2]), "iterations": np.array([1]),
                                   "witnesses": np.zeros((1, 1, 1)), "duals": np.ones((1, 3))},
    PipelineConfig: lambda: {"r": 2, "skip_rescale": True, "unbalance": 10.0, "seed": 3,
                             "membership_cfg": MembershipConfig(seed=5)},
    BoundReport: lambda: {"formula": "f", "inputs": {"n": 2}, "log2_value": 1.0,
                          "decimal": "2", "assumptions": ("a",), "extras": {"x": 1}},
}


def _same(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got is want or got == want


# Fields a constructor computes from the others, with their value for FIELDS.
DERIVED = {
    SlackMatrix: lambda: {"floats": np.array([[0.0, 1.0], [1.0, 0.0]]), "max_entry": 1.0},
}


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_plain_immutable_record(cls):
    fields = FIELDS[cls]()
    derived = DERIVED.get(cls, dict)()
    assert not dataclasses.is_dataclass(cls)
    assert set(fields) | set(derived) == set(cls.__slots__)
    record = cls(**fields)
    for name, value in derived.items():
        assert _same(getattr(record, name), value), name
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    for name, value in fields.items():
        assert _same(getattr(record, name), value), name
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert _same(getattr(record, name), value), name


# Records whose constructor is the one Record compiles from their __slots__
# and _defaults, which takes the fields by position or keyword in that order.
GENERIC = [cls for cls in FIELDS if cls.__init__ is cls._set_fields]


def test_generic_constructor_records():
    assert {cls.__name__ for cls in GENERIC} == {
        "BoundReport", "FactorizationReport", "FitResult",
        "JohnDecomposition", "RescaleConfig", "RescaleResult", "RoundedSystem",
        "MembershipConfig", "ReconstructionReport"}


@pytest.mark.parametrize("cls", GENERIC, ids=lambda cls: cls.__name__)
def test_fields_by_position_match_fields_by_keyword(cls):
    fields = FIELDS[cls]()
    record = cls(*(fields[name] for name in cls.__slots__))
    for name, value in fields.items():
        assert _same(getattr(record, name), value), name


@pytest.mark.parametrize("cls", GENERIC, ids=lambda cls: cls.__name__)
def test_missing_unknown_or_repeated_field_raises(cls):
    fields = FIELDS[cls]()
    for name in set(cls.__slots__) - set(cls._defaults):
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: {name!r}"):
            cls(**{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=1)
    first = cls.__slots__[0]
    with pytest.raises(TypeError, match=f"multiple values for argument {first!r}"):
        cls(fields[first], **fields)
    with pytest.raises(TypeError, match="positional arguments? but .* given"):
        cls(*fields.values(), None)


def test_omitted_field_takes_its_default():
    assert MembershipConfig().seed == 11
    assert RescaleConfig().tol == CERTIFICATE_TOL
    assert FitResult(factorization=None, trace=()).reason is None
    system = RoundedSystem(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 1, 1)), _grid())
    assert system.selected == system.error_fnorm == system.zeroed == ()
