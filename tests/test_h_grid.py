"""Property test of the passage kernel on (shift, time) grids."""

import numpy as np
from hypothesis import given, settings, strategies as st

from chernoff import densities as dens

_SHIFTS = st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4)
# both sides of the Talbot/residue switch at t = 0.9, and t <= 0
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
