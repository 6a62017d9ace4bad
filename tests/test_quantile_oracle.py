"""The in-repo t/F quantiles and incomplete beta against SciPy as an oracle.

SciPy is a test extra only; without it this module is skipped.
"""

import itertools

import pytest

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")

from effattr.special import betainc, betainc_inv  # noqa: E402
from effattr.stats import f_quantile, t_quantile  # noqa: E402

TAILS = (0.4, 0.25, 0.1, 0.05, 0.025, 0.01, 0.005, 1e-3, 1e-4, 1e-5, 1e-6)
T_DFS = (1, 1.5, 2, 2.7, 3, 5, 7.3, 10, 30, 100, 1e3, 1e4, 1e5, 1e6)
ALPHAS = (0.5, 0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6)
DF1S = (1, 2, 3, 5, 10, 30)
DF2S = (1, 2, 5, 10, 40, 200, 1e4)

T_GRID = list(itertools.product(TAILS, T_DFS))
F_GRID = list(itertools.product(ALPHAS, DF1S, DF2S))

# Every (a, b, p) the quantiles invert, on both sides. Among them, points
# such as (5e4, 0.5, 0.5) and (5e5, 0.5, 0.1) reach betainc_inv's bisection
# step because the density underflows, and (0.5, 0.5, 0.99) and
# (500, 0.5, 0.02) because a Newton step leaves the bracket.
BETA_GRID = sorted(
    {(0.5, df / 2, 1 - 2 * tail) for tail, df in T_GRID}
    | {(df / 2, 0.5, 2 * tail) for tail, df in T_GRID}
    | {(d1 / 2, d2 / 2, 1 - alpha) for alpha, d1, d2 in F_GRID}
    | {(d2 / 2, d1 / 2, alpha) for alpha, d1, d2 in F_GRID}
)


def test_t_quantile_matches_scipy():
    bad = [
        (tail, df, t_quantile(tail, df), scipy_stats.t.isf(tail, df))
        for tail, df in T_GRID
        if t_quantile(tail, df) != pytest.approx(scipy_stats.t.isf(tail, df), rel=1e-8, abs=0)
    ]
    assert not bad


def test_f_quantile_matches_scipy():
    bad = [
        (alpha, d1, d2, f_quantile(alpha, d1, d2), scipy_stats.f.isf(alpha, d1, d2))
        for alpha, d1, d2 in F_GRID
        if f_quantile(alpha, d1, d2)
        != pytest.approx(scipy_stats.f.isf(alpha, d1, d2), rel=1e-8, abs=0)
    ]
    assert not bad


def test_betainc_matches_scipy_where_the_quantiles_invert():
    bad = []
    for a, b, p in BETA_GRID:
        x = betainc_inv(a, b, p)
        got, want = betainc(a, b, x), float(scipy_special.betainc(a, b, x))
        if abs(got - want) > 1e-9:
            bad.append((a, b, p, x, got, want))
    assert not bad
