"""The passage kernel on (shift, time) grids: a property test and the
residue route against a high-precision reference."""

import tracemalloc

import numpy as np
import scipy.special
from hypothesis import given, settings, strategies as st

from chernoff import airy
from chernoff import densities as dens

_SHIFTS = st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4)
# both sides of the contour/residue switch at t = 0.9, and t <= 0
_EARLY = st.lists(st.one_of(st.floats(-1.0, 0.0),
                            st.floats(0.01, 0.9, exclude_max=True)),
                  min_size=1, max_size=3)
_LATE = st.lists(st.floats(0.9, 4.0), min_size=1, max_size=3)


@settings(max_examples=30)
@given(_SHIFTS, _EARLY, _LATE)
def test_h_grid_rows_and_columns_match_single_evaluations(a, early, late):
    a = np.array(a)
    t = np.array(early + [0.0] + late)
    grid = dens._h_grid(a, t)
    assert grid.shape == (a.size, t.size)
    assert np.all(grid[:, t <= 0.0] == 0.0)
    for i, ai in enumerate(a):
        np.testing.assert_allclose(grid[i], dens._h_grid(ai, t)[0],
                                   rtol=1e-13, atol=0.0)
    for j, tj in enumerate(t):
        np.testing.assert_allclose(grid[:, j], dens._h_grid(a, tj)[:, 0],
                                   rtol=1e-13, atol=0.0)


def test_h_grid_blocks_bound_memory_not_values():
    # 200 shifts x 2,000 times of one band would be 211 MB of complex
    # contour terms at once; in blocks of 4,096 (shift, time) entries the
    # peak stays near the 3.2 MB grid, and each entry is still its own sum
    a = np.linspace(0.0, 5.0, 200)
    t = np.linspace(0.46, 0.89, 2000)
    tracemalloc.start()
    try:
        grid = dens._h_grid(a, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
    assert np.array_equal(grid[:, 1234], dens._h_grid(a, t[1234])[:, 0])


# sum_k 2^{1/3} Ai(a_k + a) / Ai'(a_k) exp(2^{1/3} t a_k) over the first 150
# zeros a_k, a = -4^{1/3} x, in 40-digit mpmath; rows x, columns t
_RES_X = np.array([-0.3, -1.0, -2.5])
_RES_T = np.array([0.9, 1.0, 1.5, 3.0, 6.0])
_RES_H = np.array([
    [0.045283723718356369922, 0.032664615836673645527, 0.0069128974341791295908,
     8.046104027550662326e-05, 1.1667202435699779051e-08],
    [0.066799415369320430471, 0.049666166160924009428, 0.011283387266919855327,
     0.00013512770262305793027, 1.9613732737554221035e-08],
    [0.0031273441323163508574, 0.0028420814616056875679, 0.001050784319555176684,
     1.5518708754459612317e-05, 2.2701160075281427141e-09],
])


def test_residue_route_against_mpmath_residue_sum():
    grid = dens._h_grid(-dens.FOUR13 * _RES_X, _RES_T)
    np.testing.assert_allclose(grid, _RES_H, rtol=5e-15, atol=0.0)


def test_residue_numerators_send_no_point_below_the_switch_to_amos(monkeypatch):
    # residue numerators below x = -8 come from ai_real's Poincare sums;
    # the cached zeros and their Ai' stay on AMOS, so the caches fill first
    levels = np.arange(1, 11) * 0.2
    ops = (lambda: dens.psi(1.3), lambda: dens._joint_two_sided_grid(1.5, levels))
    for op in ops:
        op()
    real_airy = scipy.special.airy
    below = []

    def counted(z):
        z = np.asarray(z)
        if not np.iscomplexobj(z):
            below.append(int((z < -airy.SWITCH_RADIUS).sum()))
        return real_airy(z)

    monkeypatch.setattr(scipy.special, "airy", counted)
    for op in ops:
        op()
    assert below and sum(below) == 0
