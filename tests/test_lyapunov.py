import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareycf import lyapunov as ly
from fareycf import natext as nx

PLATEAU = math.pi**2 / (6 * math.log((1 + math.sqrt(5)) / 2))


def per_step_oracle(alpha, x0, steps, burn_in, rng=None):
    """The former kernel, one log per step, with the kernel's restart out of a
    float cycle: when a counted block of `ly._BLOCK` steps that does not end
    the run ends at its own start, or at the anchor saved every
    `ly._ANCHOR_EVERY` blocks, the orbit starts afresh from `rng` (default
    ``random.Random(0)``, as in the kernel) and burns in again.  None where
    the kernel would have restarted after a hit of 0."""
    if rng is None:
        rng = random.Random(0)
    x = x0
    acc = 0.0
    left = steps
    while True:
        for _ in range(burn_in):
            if x == 0.0 or x != x:
                return None
            u = -1.0 / x
            x = u - math.floor(u + 1.0 - alpha)
        anchor = math.nan
        blocks = 0
        while True:
            start = x
            for _ in range(min(ly._BLOCK, left)):
                if x == 0.0 or x != x:
                    return None
                acc += -2.0 * math.log(abs(x))
                u = -1.0 / x
                x = u - math.floor(u + 1.0 - alpha)
            left -= min(ly._BLOCK, left)
            if not left:
                return acc / steps
            if x == start or x == anchor:
                break
            blocks += 1
            if not blocks % ly._ANCHOR_EVERY:
                anchor = x
        x = ly._random_start(rng, alpha)


def test_block_kernel_equals_the_per_step_oracle():
    # the inputs of acceptance criterion 12: none of these orbits restarts
    for k in range(2, 12):
        alpha = Fraction(k, 23)
        a = float(alpha)
        x0 = ly._random_start(random.Random(k), a)
        expected = per_step_oracle(a, x0, 10**6, 1000)
        assert expected is not None
        assert ly.lyapunov_estimate(alpha, steps=10**6, seed=k) == pytest.approx(expected, rel=1e-12, abs=0)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(0.001, 0.999),
    t=st.floats(0.0, 1.0, exclude_max=True),
    steps=st.integers(1, 2000),
    burn_in=st.integers(0, 60),
)
@example(alpha=0.3, t=0.6, steps=1, burn_in=0)
@example(alpha=0.3, t=0.6, steps=17, burn_in=0)
@example(alpha=0.71, t=0.2, steps=1999, burn_in=0)
@example(alpha=0.5, t=0.1, steps=16, burn_in=7)
@example(alpha=0.3125, t=0.0, steps=1073, burn_in=0)  # a 6-cycle from -11/16, left at step 1072
def test_block_logs_equal_per_step_logs(alpha, t, steps, burn_in):
    x0 = alpha - 1.0 + t
    assume(abs(x0) >= 1e-6)
    expected = per_step_oracle(alpha, x0, steps, burn_in)
    assume(expected is not None)
    assert ly.birkhoff_log_deriv(alpha, x0, steps, burn_in) == pytest.approx(expected, rel=1e-12, abs=0)


def test_restart_out_of_a_float_cycle():
    # without restarts this orbit falls into a 4-cycle near +-2^-12 and reads 5.83
    alpha = Fraction(23, 146)
    h = float(nx.entropy_at(alpha).h)
    est = ly.lyapunov_estimate(alpha, steps=10**6, seed=200045)
    assert abs(est - h) / h < 0.02


def test_restart_after_an_exact_hit_of_zero():
    # at alpha = 1/2 the first step maps 1/4 to 0 exactly; a start at 0 restarts too
    for x0 in (0.25, 0.0):
        est = ly.birkhoff_log_deriv(0.5, x0, 200_000, 10)
        assert abs(est - PLATEAU) / PLATEAU < 0.05
    # the hit in the burn-in counts nothing; the restart burns in again
    start = ly._random_start(random.Random(0), 0.5)
    n = 5_000
    restarted = per_step_oracle(0.5, start, n, 10)
    assert ly.birkhoff_log_deriv(0.5, 0.25, n, 10) == pytest.approx(restarted, rel=1e-12, abs=0)
    # with no burn-in the point 1/4 is counted before the hit
    restarted = per_step_oracle(0.5, start, n - 1, 0)
    expected = (-2.0 * math.log(0.25) + (n - 1) * restarted) / n
    assert ly.birkhoff_log_deriv(0.5, 0.25, n, 0) == pytest.approx(expected, rel=1e-12, abs=0)


def test_deterministic_under_seed():
    a = ly.lyapunov_estimate(Fraction(2, 5), steps=50_000, seed=3)
    b = ly.lyapunov_estimate(Fraction(2, 5), steps=50_000, seed=3)
    assert a == b


def test_estimate_matches_exact_entropy():
    alpha = Fraction(1, 3)
    h = float(nx.entropy_at(alpha).h)
    est = ly.lyapunov_estimate(alpha, steps=10**6, seed=0)
    assert abs(est - h) / h < 0.02


def test_plateau_from_orbit_average():
    est = ly.lyapunov_estimate(Fraction(1, 2), steps=10**6, seed=1)
    assert abs(est - PLATEAU) / PLATEAU < 0.02


def test_rejects_bad_alpha():
    with pytest.raises(ValueError):
        ly.lyapunov_estimate(Fraction(3, 2))


@pytest.mark.parametrize("steps, burn_in", [(0, 10), (-3, 10), (100, -5)])
def test_rejects_bad_counts(steps, burn_in):
    with pytest.raises(ValueError):
        ly.lyapunov_estimate(Fraction(1, 3), steps=steps, burn_in=burn_in)
    with pytest.raises(ValueError):
        ly.birkhoff_log_deriv(0.3, 0.12345, steps, burn_in)


def test_rejects_a_start_that_is_not_finite():
    for x0 in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ly.birkhoff_log_deriv(0.3, x0, 100, 10)
