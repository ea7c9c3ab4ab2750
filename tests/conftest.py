"""Shared fixtures: frozen goldens and the two deep A(2) resolutions.

The heavy artifacts are session-scoped so the acceptance criteria and the
unit tests share one computation of each.
"""

import json
from pathlib import Path

import pytest

from extforge import milnor, modules
from extforge import resolution as R

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(scope="session")
def golden_a() -> dict:
    return json.loads((GOLDEN_DIR / "stageA.json").read_text())


@pytest.fixture(scope="session")
def golden_b() -> dict:
    return json.loads((GOLDEN_DIR / "stageB.json").read_text())


@pytest.fixture(scope="session")
def res_a2() -> R.FreeResolution:
    res = R.minimal_resolution(milnor.A2, 30, 92)
    res.verify_d_squared()
    res.verify_minimal()
    res.verify_exact()
    return res


@pytest.fixture(scope="session")
def sphere_a2(res_a2) -> R.ExtChart:
    return R.ext_f2(res_a2)


@pytest.fixture(scope="session")
def h8(res_a2) -> R.FreeComplex:
    return R.cone(res_a2, 3, 3)


@pytest.fixture(scope="session")
def h8_chart(res_a2, h8) -> R.ExtChart:
    return R.ext_over_complex(h8, modules.trivial(milnor.A2), "F2", max_s=29)


@pytest.fixture(scope="session")
def res_a2_deep() -> R.FreeResolution:
    return R.minimal_resolution(milnor.A2, 28, 148)


@pytest.fixture(scope="session")
def h8v_deep(res_a2_deep):
    """The v1^8 cone over the deep resolution, with its selection record."""
    X = R.cone(res_a2_deep, 3, 3)
    sel = R.select_self_map(X, 8, 24, res_a2_deep, window_s=11, window_t=30)
    assert sel.unique, sel.note
    return R.cone(X, 8, 24, sel.attach_coords), sel


@pytest.fixture(scope="session")
def res_a1() -> R.FreeResolution:
    return R.minimal_resolution(milnor.A1, 8, 22)
