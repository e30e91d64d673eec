"""The reproduction grid against the outcomes pinned in tests/data/grid.json.

A change that moves a pinned value rewrites the file with
``PYTHONPATH=src python tests/grid_fixture.py`` and names each changed
field, with its reason, in CHANGES.md.
"""

import copy
import json

import pytest

import grid_fixture


@pytest.fixture(scope="module")
def outcomes():
    return grid_fixture.compute()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(grid_fixture.FIXTURE.read_text())


def test_grid_matches_the_fixture(outcomes, pinned):
    changed = grid_fixture.differences(outcomes, pinned)
    assert not changed, "changed runs and fields:\n" + "\n".join(changed)


def test_a_flipped_verdict_or_start_is_caught(outcomes, pinned):
    flipped = copy.deepcopy(outcomes)
    flipped["cube-n2"]["verdict"] = "mismatch"
    flipped["simplex-n3-u10000s1"]["rescale"]["start"] = "input"
    assert pinned["simplex-n3-u10000s1"]["rescale"]["start"] == "mean"
    assert grid_fixture.differences(flipped, pinned) == [
        "cube-n2: verdict: 'mismatch', pinned 'match'",
        "simplex-n3-u10000s1: rescale.start: 'input', pinned 'mean'",
    ]
