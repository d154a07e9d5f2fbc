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


@pytest.mark.parametrize(
    "x0, before",
    [
        pytest.param(0.25, [0.25], id="offset_1"),
        pytest.param(-0.4444444444444445, [-0.4444444444444445, 0.25], id="offset_2"),
    ],
)
@pytest.mark.parametrize("n", [5, 16, 17, 1000])
def test_points_before_a_hit_inside_a_block_are_counted(x0, before, n):
    # at alpha = 1/2 these starts reach 0 after 1 and 2 steps, at that offset of the
    # first counted block (the tail when n < 16); the points before the hit count,
    # and the restart draws its start, and any later restart, from the same rng
    k = len(before)
    rng = random.Random(0)
    restarted = per_step_oracle(0.5, ly._random_start(rng, 0.5), n - k, 0, rng=rng)
    assert restarted is not None
    expected = (sum(-2.0 * math.log(abs(y)) for y in before) + (n - k) * restarted) / n
    assert ly.birkhoff_log_deriv(0.5, x0, n, 0) == pytest.approx(expected, rel=1e-12, abs=0)


# float.hex() of estimates recorded with the kernel that ran one loop iteration per step
# (before the 16 steps of a block were written out); every estimate must keep these bits
PINNED_ESTIMATES = {
    ("39/44", 0): "0x1.1384962f8ab41p+1",
    ("39/44", 1): "0x1.1197a3688c5aep+1",
    ("39/44", 2): "0x1.13663e87e01fcp+1",
    ("39/44", 3): "0x1.132f8b76c5932p+1",
    ("3/10", 0): "0x1.982852ad3797ep+1",
    ("3/10", 1): "0x1.95eefcc934981p+1",
    ("3/10", 2): "0x1.96f6b3352d059p+1",
    ("3/10", 3): "0x1.974ccaf0eed5ep+1",
    ("49/115", 0): "0x1.b675907a15014p+1",
    ("49/115", 1): "0x1.b5db84fef95a2p+1",
    ("49/115", 2): "0x1.b734fd6187bb2p+1",
    ("49/115", 3): "0x1.b5d041cca9e20p+1",
    ("4/11", 0): "0x1.aecac012e5ce3p+1",
    ("4/11", 1): "0x1.afdec922aaa5ap+1",
    ("4/11", 2): "0x1.ae9412f612917p+1",
    ("4/11", 3): "0x1.ae27cde0039c2p+1",
}
PINNED_HITS_OF_ZERO = {
    (0.25, 1): "0x1.62e42fefa39efp+1",
    (0.25, 15): "0x1.950d4a7659b75p+1",
    (0.25, 16): "0x1.8d20ab96e9250p+1",
    (0.25, 17): "0x1.a85d135b915d8p+1",
    (0.25, 1023): "0x1.b21a634398910p+1",
    (0.25, 1025): "0x1.b1bb665cd09e5p+1",
    (0.25, 1040): "0x1.b1da01c064dfep+1",
    (-0.4444444444444445, 1): "0x1.9f323ecbf984bp+0",
    (-0.4444444444444445, 15): "0x1.922d64afaa097p+1",
    (-0.4444444444444445, 16): "0x1.88b607c553e80p+1",
    (-0.4444444444444445, 17): "0x1.81fa9448bd1f3p+1",
    (-0.4444444444444445, 1023): "0x1.b21592803c250p+1",
    (-0.4444444444444445, 1025): "0x1.b1ac02397f26ep+1",
    (-0.4444444444444445, 1040): "0x1.b1a97ac8381cdp+1",
}


def test_estimates_keep_their_pinned_bits():
    # the four alphas of the benchmark's crosscheck workload at seed 0, at 10^5 steps
    for (alpha, seed), bits in PINNED_ESTIMATES.items():
        est = ly.lyapunov_estimate(Fraction(alpha), steps=10**5, seed=seed)
        assert est.hex() == bits, (alpha, seed)
    # the restart out of a float cycle
    est = ly.lyapunov_estimate(Fraction(23, 146), steps=10**6, seed=200045)
    assert est.hex() == "0x1.3d8588984d640p+1"
    # hits of 0 at offsets 1 and 2, with runs that end in, at and past the first blocks
    for (x0, n), bits in PINNED_HITS_OF_ZERO.items():
        assert ly.birkhoff_log_deriv(0.5, x0, n, 0).hex() == bits, (x0, n)


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


@pytest.mark.parametrize(
    "steps, burn_in",
    [(0, 10), (-3, 10), (100, -5), (1e5, 10), (1000.5, 10), (True, 10), (100, 5.0), (100, False)],
)
def test_rejects_bad_counts(steps, burn_in):
    # a count that is not an int is refused before any step, naming the argument
    bad_steps = type(steps) is not int or steps < 1
    name, value = ("steps", steps) if bad_steps else ("burn_in", burn_in)
    error = ValueError if type(value) is int else TypeError
    with pytest.raises(error, match=name):
        ly.lyapunov_estimate(Fraction(1, 3), steps=steps, burn_in=burn_in)
    with pytest.raises(error, match=name):
        ly.birkhoff_log_deriv(0.3, 0.12345, steps, burn_in)


def test_rejects_a_start_that_is_not_finite():
    for x0 in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ly.birkhoff_log_deriv(0.3, x0, 100, 10)
