import dataclasses

import numpy as np
import pytest

from psdfact.bounds import BoundReport
from psdfact.derivatives import DerivativeCheck
from psdfact.factorization import FactorizationReport, FitResult, PsdFactorization
from psdfact.pipeline import PipelineConfig
from psdfact.polytopes import HPolytope, SlackMatrix, VPolytope
from psdfact.record import Record
from psdfact.rescaling import JohnDecomposition, RescaleConfig, RescaleResult
from psdfact.rounding import (
    GridParams,
    MembershipConfig,
    MembershipVerdict,
    ReconstructionReport,
    RoundedSystem,
    grid_delta,
)
from psdfact.symmat import SpectralDecomposition


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
    SpectralDecomposition: lambda: {"eigenvalues": np.array([2.0, 1.0]),
                                    "eigenvectors": np.eye(2)},
    PsdFactorization: lambda: {"row_factors": np.ones((1, 1, 1)),
                               "col_factors": np.ones((2, 1, 1))},
    FactorizationReport: lambda: {"max_abs_residual": 0.5, "residual_location": (1, 0),
                                  "lmax_u": 2.0, "lmax_v": 3.0, "potential": 6.0,
                                  "tol": 1e-8, "passed": False},
    FitResult: lambda: {"factorization": _factorization(), "trace": (0.5, 0.25)},
    JohnDecomposition: lambda: {"dim": 1, "ellipsoid_map": np.ones((1, 1)),
                                "points": np.ones((1, 1)), "weights": np.ones(1)},
    RescaleConfig: lambda: {"tol": 0.1},
    RescaleResult: lambda: {"transform": np.eye(1), "transform_pinv": np.eye(1),
                            "factorization": _factorization(),
                            "lmax_trajectory": ((1.0, 1.0),), "lmax_u": 1.0, "lmax_v": 1.0,
                            "certificate": True, "iterations": 0, "reduced_dim": 1,
                            "diagnostics": {"start": "input"}},
    GridParams: lambda: {"n": 2, "r": 1, "delta": grid_delta(2, 1) / 2, "big_delta": 4.0,
                         "worst_case": True},
    RoundedSystem: lambda: {"a": np.zeros((3, 2)), "b": np.zeros(3),
                            "factors": np.zeros((3, 1, 1)), "grid": _grid(),
                            "selected": (0,), "error_fnorm": (0.0,)},
    MembershipConfig: lambda: {"seed": 5},
    MembershipVerdict: lambda: {"point": (0, 1), "verdict": "rejected", "witness": None,
                                "violation": 0.1, "dual_margin": 0.2,
                                "dual": np.array([1.0]), "iterations": 1},
    ReconstructionReport: lambda: {"verdicts": ()},
    DerivativeCheck: lambda: {"analytic": 1.0, "slopes": ((1e-3, 1.0),),
                              "max_deviation": 0.0},
    PipelineConfig: lambda: {"r": 2, "skip_rescale": True, "unbalance": 10.0, "seed": 3,
                             "membership_cfg": MembershipConfig(seed=5)},
    BoundReport: lambda: {"formula": "f", "inputs": {"n": 2}, "log2_value": 1.0,
                          "decimal": "2", "assumptions": ("a",), "extras": {"x": 1}},
}


def _same(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got is want or got == want


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_plain_immutable_record(cls):
    fields = FIELDS[cls]()
    assert not dataclasses.is_dataclass(cls)
    assert set(fields) == set(cls.__slots__)
    record = cls(**fields)
    for name, value in fields.items():
        assert _same(getattr(record, name), value), name
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert _same(getattr(record, name), value), name
