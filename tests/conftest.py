"""The suite's one hypothesis profile: the same examples on every run, with no
saved database and no per-example deadline. Tests set only max_examples.

Every test must leave numpy's ufunc buffer size and error state as it found
them: the kernels set both for their own calls only."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("matkit", deadline=None, derandomize=True, database=None)
settings.load_profile("matkit")


@pytest.fixture(autouse=True)
def _numpy_state_restored():
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    np.setbufsize(before[0])  # so one leak fails one test, not the ones after it
    np.seterr(**before[1])
    assert after == before, f"numpy's ufunc buffer and error state {after} != {before}"
