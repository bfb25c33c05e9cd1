"""Tier 0's normal CDF and quantile, and the Clark step built on them.

``norm_cdf`` is NumPy code (a Mills-ratio table times the density), so
it is held to an error bound against ``math.erfc`` and to the identities
SciPy's ``ndtr`` satisfied; ``norm_ppf`` is held to SciPy's ``ndtri``.
The allocation-free Clark step must equal the allocating reference bit
for bit.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import repro
from repro.solver.analytic_backend import (
    _CLARK_SCRATCH,
    _clark_max_into,
    clark_max,
    norm_cdf,
    norm_ppf,
)

#: Four units in the last place of a result in [0.5, 1).
ABS_ERROR = 4.5e-16


def reference_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])


def test_import_builds_no_table_the_first_call_does():
    """Importing tier 0 does no table work: the first Phi call builds it."""
    code = (
        "import repro.solver.analytic_backend as ab\n"
        "before = ab._mills_table.cache_info().currsize\n"
        "ab.norm_cdf(0.5)\n"
        "print(before, ab._mills_table.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "1"]


class TestNormCdf:
    def test_absolute_error_on_a_dense_grid(self):
        x = np.linspace(-40.0, 40.0, 800_001)
        err = np.abs(norm_cdf(x) - reference_cdf(x))
        assert err.max() <= ABS_ERROR, (err.max(), x[err.argmax()])

    def test_absolute_error_near_the_centre(self):
        x = np.random.default_rng(5).uniform(-4.0, 4.0, 400_000)
        assert np.abs(norm_cdf(x) - reference_cdf(x)).max() <= ABS_ERROR

    def test_special_values(self):
        got = norm_cdf(np.array([0.0, -0.0, 8.5, -8.5, np.inf, -np.inf]))
        assert got[0] == got[1] == 0.5
        assert got[2] == 1.0 and 0.0 < got[3] < 1e-17
        assert got[3] == pytest.approx(0.5 * math.erfc(8.5 / math.sqrt(2.0)), rel=1e-13)
        assert got[4] == 1.0 and got[5] == 0.0

    def test_nan_propagates(self):
        got = norm_cdf(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == pytest.approx(0.8413447460685429, abs=ABS_ERROR)

    def test_symmetry_and_monotonicity(self):
        x = np.linspace(-12.0, 12.0, 240_001)
        assert np.abs(norm_cdf(x) + norm_cdf(-x) - 1.0).max() <= 2.3e-16
        assert np.all(np.diff(norm_cdf(x)) >= 0.0)

    def test_scalars_and_shapes(self):
        assert norm_cdf(0.0).shape == ()
        block = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(norm_cdf(block), norm_cdf(block.ravel()).reshape(3, 4))


@pytest.mark.parametrize("p", [0.5, 0.9, 0.96, 0.99, 0.999])
def test_norm_ppf_within_two_ulp_of_scipy(p):
    want = float(ndtri(p))
    assert abs(norm_ppf(p) - want) <= 2 * np.spacing(abs(want))


def _blocks():
    rng = np.random.default_rng(11)
    shape = (37, 23)
    yield (rng.normal(100.0, 30.0, shape), rng.uniform(0.0, 400.0, shape),
           rng.normal(100.0, 30.0, shape), rng.uniform(0.0, 400.0, shape))
    # Far apart, equal means, deterministic and mixed scales.
    m = rng.normal(1e4, 1.0, shape)
    yield m, rng.uniform(0.0, 1e-3, shape), m + rng.normal(0.0, 5e3, shape), rng.uniform(0, 1e6, shape)
    yield m, np.zeros(shape), m.copy(), rng.uniform(0.0, 4.0, shape)
    yield m, np.zeros(shape), m - 1.0, np.zeros(shape)
    # A reduction stack's view layout: (k, P, B) halves of one array.
    stack = rng.normal(500.0, 50.0, (3, 8, 5))
    var = rng.uniform(1.0, 900.0, (3, 8, 5))
    yield stack[:, :4], var[:, :4], stack[:, 4:], var[:, 4:]


@pytest.mark.parametrize("case", range(5))
def test_clark_max_into_equals_clark_max_bit_for_bit(case):
    m1, v1, m2, v2 = list(_blocks())[case]
    want_m, want_v = clark_max(m1, v1, m2, v2)
    got_m, got_v, om, ov = (np.array(a, copy=True) for a in (m1, v1, m2, v2))
    ws = tuple(np.empty(m1.shape) for _ in range(_CLARK_SCRATCH - 1)) + (
        np.empty(m1.shape, np.intp),
    )
    _clark_max_into(got_m, got_v, om, ov, ws)
    np.testing.assert_array_equal(got_m, want_m)
    np.testing.assert_array_equal(got_v, want_v)
    assert np.all(want_v >= 0.0)
