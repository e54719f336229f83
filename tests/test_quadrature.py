"""Adaptive Gauss-Kronrod engine: exactness, node placement, shared panels, failures."""

import math
import re
import warnings

import numpy as np
import pytest

from spinrad import (
    ConvergenceError,
    DiskTable,
    DomainError,
    Drude,
    MSumPolicy,
    ThermalState,
    integrate_power,
)
from spinrad.quadrature import adaptive_integral

from quadrature_reference import adaptive_integral as heap_integral
from reference_routes import integrate_one as integrate


class Recorder:
    """Integrand wrapper that keeps every node array it is handed."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, w):
        self.calls.append(np.array(w))
        return self.f(w)

    @property
    def nodes(self):
        return np.concatenate(self.calls)


def test_gk21_exact_on_polynomials():
    # the 21-point Kronrod rule integrates degree <= 31 exactly on each panel
    a, b = 0.3, 1.7
    degrees = np.arange(32)
    val, err = integrate(lambda w: w ** degrees[:, None], a, b)
    exact = (b ** (degrees + 1) - a ** (degrees + 1)) / (degrees + 1)
    np.testing.assert_allclose(val, exact, rtol=1e-14)
    assert err < 1e-12 * np.max(exact)  # only the rounding floor is left


def test_a_degree_19_polynomial_takes_one_call_on_the_two_halves():
    # 10-point Gauss is exact to degree 19, so the first round meets the tolerance;
    # it evaluates the two halves only, never the whole interval
    a, b = 0.3, 1.7
    f = Recorder(lambda w: np.polynomial.polynomial.polyval(w, np.arange(1.0, 21.0)))
    val, _ = integrate(f, a, b)
    assert [w.size for w in f.calls] == [42]
    nodes = f.calls[0]
    assert (nodes[:21] < 1.0).all() and (nodes[21:] > 1.0).all() and 1.0 not in nodes
    exact = math.fsum(b ** (d + 1) - a ** (d + 1) for d in range(20))
    assert val == pytest.approx(exact, rel=1e-14)
    assert repr(float(val)) == "98699.9055900126"  # the bits of left half + right half


def test_integrand_never_receives_the_endpoints():
    # 1/sqrt(w) is infinite at w = 0: an endpoint evaluation would poison the sum
    f = Recorder(lambda w: 1.0 / np.sqrt(w))
    val, _ = integrate(f, 0.0, 1.0, epsrel=1e-10)
    assert val == pytest.approx(2.0, rel=1e-9)
    nodes = f.nodes
    assert nodes.min() > 0.0 and nodes.max() < 1.0
    assert len(f.calls) > 1  # the singularity forces refinement rounds


def test_vector_components_share_panels():
    # components of very different shape and scale are evaluated on one node set
    f = Recorder(lambda w: np.array([np.exp(-50 * w), w**2, np.sin(40 * w)]))
    val, _ = integrate(f, 0.0, 2.0)
    assert val.shape == (3,)
    assert val == pytest.approx(
        [(1 - math.exp(-100)) / 50, 8 / 3, (1 - math.cos(80)) / 40], rel=1e-9
    )
    for w in f.calls:
        assert w.ndim == 1 and w.size % 21 == 0


def test_linear_identity_holds_to_roundoff_on_thermal_disk():
    state = ThermalState(T_object=0.5, T_env=0.15, Omega=1.0)
    res = integrate_power(DiskTable(Drude(1.0), 0.1), state, MSumPolicy(m_max=3))
    scale = max(abs(res.P), abs(state.Omega * res.M), abs(res.Q))
    assert abs(res.Q - (state.Omega * res.M - res.P)) <= 1e-13 * scale


def test_subdivision_limit_raises_naming_the_interval():
    with pytest.raises(ConvergenceError, match=r"\(0, 10\)"):
        integrate(lambda w: np.sin(300 * w) * np.exp(w), 0.0, 10.0, limit=4)


@pytest.mark.parametrize("limit", [4, 150, 300])
def test_a_stall_never_takes_more_panels_than_the_limit(limit):
    # the integrand needs thousands of panels, and a round may bisect up to
    # BATCH_PANELS of them: the last round stops at the limit
    with pytest.raises(ConvergenceError, match=r"\(0, 10\) stalled") as exc:
        integrate(lambda w: np.sin(3e4 * w) * np.exp(w), 0.0, 10.0, limit=limit)
    panels = int(re.search(r"after (\d+) panels", str(exc.value)).group(1))
    assert panels <= limit


def test_non_finite_integrand_raises_instead_of_returning_nan():
    with pytest.raises(ConvergenceError, match=r"\(0, 1\)"):
        integrate(lambda w: np.where(w > 0.5, np.nan, w), 0.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda w: np.where(w > 0.5, np.inf, w),
    lambda w: np.where(w > 0.5, -np.inf, w),
    lambda w: np.where(w > 0.5, np.inf, -np.inf),  # inf - inf in the panel sums as well
    lambda w: np.where(w > 0.5, np.nan, w),
], ids=["inf", "-inf", "mixed", "nan"])
def test_non_finite_integrand_stalls_without_a_floating_point_warning(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"^quadrature on \(0, 1\) stalled: err=nan "):
            integrate(f, 0.0, 1.0)


def test_the_integrands_own_floating_point_warnings_surface():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="invalid value encountered in log"):
            integrate(lambda w: np.log(w - 0.5), 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                  (-math.inf, 1.0)])
def test_non_finite_bound_raises_before_any_integrand_call(a, b):
    f = Recorder(np.sin)
    with pytest.raises(DomainError, match=r"at batch position 0 is not finite"):
        integrate(f, a, b)
    assert f.calls == []


def test_non_finite_bound_of_a_batch_names_its_position():
    def f(x):
        raise AssertionError("the integrand must not be called")

    with pytest.raises(DomainError,
                       match=r"^interval \(1, nan\) at batch position 2 is not finite$"):
        adaptive_integral(f, [0.0, 0.5, 1.0, 2.0], [1.0, 1.5, math.nan, math.inf])


def never_called(x):
    raise AssertionError("the integrand must not be called")


@pytest.mark.parametrize("a, b, epsrel, position, missing_from", [
    ([0.0, 1.0], [1.0], 1e-9, 1, "b"),
    ([0.0], [1.0, 2.0], 1e-9, 1, "a"),
    ([0.0, 1.0], [1.0, 2.0], [1e-9], 1, "epsrel"),
    ([0.0, 1.0], [1.0, 2.0], [1e-9, 1e-9, 1e-9], 2, "a"),
])
def test_batch_inputs_of_different_lengths_raise_before_any_call(a, b, epsrel, position,
                                                                  missing_from):
    # zip would keep the shortest input and silently drop the rest of the batch
    with pytest.raises(DomainError, match=rf"batch position {position} is missing from "
                                          rf"{missing_from}$"):
        adaptive_integral(never_called, a, b, epsrel=epsrel)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, [1.0]), ([0.0], 1.0), ([[0.0]], [[1.0]])])
def test_bounds_that_are_not_1d_sequences_raise_before_any_call(a, b):
    # a scalar pair is not a batch of one: every caller passes sequences
    with pytest.raises(DomainError, match=r"^a and b must be 1-D sequences of bounds"):
        adaptive_integral(never_called, a, b)


@pytest.mark.parametrize("epsrel", [0.0, -1e-9, math.nan, math.inf])
def test_a_tolerance_that_is_not_finite_and_positive_raises_before_any_call(epsrel):
    # such a tolerance can never be met: the integral would stall at the limit
    with pytest.raises(DomainError, match=r"^epsrel=.* at batch position 0 is not a finite "):
        adaptive_integral(never_called, [0.0], [1.0], epsrel=epsrel)
    with pytest.raises(DomainError, match=r"^epsrel=.* at batch position 2 is not a finite "):
        adaptive_integral(never_called, [0.0] * 3, [1.0] * 3, epsrel=[1e-9, 1e-9, epsrel])


def test_a_nan_policy_tolerance_is_a_domain_error_not_a_stall():
    state = ThermalState(Omega=1.0)
    with pytest.raises(DomainError, match=r"^epsrel=nan at batch position 0 "):
        integrate_power(DiskTable(Drude(1.0), 0.1), state, MSumPolicy(m_max=3, epsrel=math.nan))


def test_empty_interval_returns_zeros_of_the_component_shape():
    f = Recorder(lambda w: np.array([w, 2 * w, 3 * w]))
    val, err = integrate(f, 1.0, 1.0)
    assert np.shape(val) == (3,) and not np.any(val) and err == 0.0
    val, err = integrate(lambda w: w, 2.0, 1.0)
    assert np.shape(val) == () and val == 0.0
    assert all(w.size == 0 for w in f.calls)  # no node was evaluated


def test_identical_calls_are_bit_identical():
    def f(w):
        N = np.exp(-w / 0.3) / (1.0 + (w - 1.0) ** 2 / 1e-3)
        return np.array([w * N, N, (1.0 - w) * N])

    v1, e1 = integrate(f, 0.0, 12.0)
    v2, e2 = integrate(f, 0.0, 12.0)
    assert v1.tobytes() == v2.tobytes() and e1 == e2


def test_integrand_must_put_nodes_on_the_last_axis():
    with pytest.raises(ValueError, match="last axis"):
        integrate(lambda w: np.ones((w.size, 2)), 0.0, 1.0)


# lock-step batches: members with their own interval, integrand and tolerance
BATCH = [  # (a, b, epsrel, peak, width)
    (0.0, 12.0, 1e-9, 1.0, 1e-3),
    (0.0, 1.0, 1e-10, 0.3, 1e-2),
    (0.5, 2.5, 1e-8, 2.0, 1e-4),
    (1.0, 1.0, 1e-9, 1.0, 1.0),  # empty: zeros, no node
    (0.0, 3.0, 1e-9, 1.7, 3e-5),
]


def peaked(w, peak, width):
    N = np.exp(-w / 0.3) / (1.0 + (w - peak) ** 2 / width)
    return np.array([w * N, N, (peak - w) * N])


def batch_integrand(members, seen=None):
    params = np.array([(p, wd) for *_, p, wd in members])

    def f(x):
        w, k = x
        if seen is not None:
            seen.append((w.copy(), k.copy()))
        return peaked(w, params[k, 0], params[k, 1])

    return f


def test_batch_equals_batches_of_one():
    a, b, eps, *_ = map(list, zip(*BATCH))
    values, errors = adaptive_integral(batch_integrand(BATCH), a, b, epsrel=eps)
    assert len(values) == len(errors) == len(BATCH)
    for (lo, hi, e, p, wd), val, err in zip(BATCH, values, errors):
        ref, ref_err = integrate(lambda w: peaked(w, p, wd), lo, hi, epsrel=e)
        assert val.tobytes() == ref.tobytes() and err == ref_err


def test_each_member_starts_on_its_two_halves():
    a, b, eps, *_ = map(list, zip(*BATCH))
    seen = []
    adaptive_integral(batch_integrand(BATCH, seen), a, b, epsrel=eps)
    w, owner = seen[0]
    for k, (lo, hi, *_) in enumerate(BATCH):
        mine = w[owner == k]
        if hi <= lo:  # empty: no node
            assert mine.size == 0
            continue
        mid = 0.5 * (lo + hi)
        assert mine.size == 42 and mid not in mine  # the whole panel's centre is never a node
        assert (lo < mine[:21]).all() and (mine[:21] < mid).all()
        assert (mid < mine[21:]).all() and (mine[21:] < hi).all()


def test_stalled_member_raises_and_its_neighbours_run_as_alone():
    members = [BATCH[0], (0.0, 1.0, 1e-9, np.nan, 1.0), BATCH[4]]
    a, b, eps, *_ = map(list, zip(*members))
    seen = []
    with pytest.raises(ConvergenceError, match=r"\(0, 1\) stalled") as exc:
        adaptive_integral(batch_integrand(members, seen), a, b, epsrel=eps)
    assert exc.value.index == 1
    for k in (0, 2):
        lo, hi, e, p, wd = members[k]
        alone = Recorder(lambda w: peaked(w, p, wd))
        integrate(alone, lo, hi, epsrel=e)
        mine = [w[owner == k] for w, owner in seen if (owner == k).any()]
        assert len(mine) == len(alone.calls)
        assert all(np.array_equal(x, y) for x, y in zip(mine, alone.calls))


# the panel table against the heap engine of quadrature_reference.py, case by case
KINDS = ("peak", "kink", "step", "const", "nan", "oscillating", "singular")


def random_case(seed):
    """A seeded batch: intervals (some empty or reversed), integrands, tolerances and a limit."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 5, 12, 40, 120], p=[0.32, 0.2, 0.17, 0.15, 0.12, 0.03, 0.01]))
    a = rng.uniform(-2.0, 2.0, n)
    b = a + rng.choice([-1.0, 0.0, 0.5, 2.0, 6.0], n, p=[0.05, 0.05, 0.3, 0.3, 0.3])
    # kinks and steps on panel edges (halves, quarters) as well as off them
    where = np.where(rng.random(n) < 0.5, rng.choice([0.5, 0.25, 0.75], n), rng.random(n))
    params = dict(
        kind=rng.choice(len(KINDS), n, p=[0.25, 0.2, 0.2, 0.2, 0.03, 0.07, 0.05]),
        p=a + where * (b - a),
        amp=10.0 ** rng.uniform(-3.0, 3.0, n),
        freq=rng.choice([30.0, 3000.0], n),
    )
    epsrel = rng.choice([1e-5, 1e-8, 1e-11], n) if rng.random() < 0.5 else 1e-9
    limit = int(rng.choice([2, 5, 50, 300], p=[0.15, 0.2, 0.4, 0.25]))
    return dict(a=a, b=b, epsrel=epsrel, limit=limit, vector=bool(rng.random() < 0.5),
                scalar_call=bool(n == 1 and rng.random() < 0.5), **params)


def random_integrand(case, w, k):
    kind, p, amp, freq = (case[name][k] for name in ("kind", "p", "amp", "freq"))
    x = w - p
    with np.errstate(all="ignore"):
        out = np.select([kind == i for i in range(len(KINDS))], [
            amp / (1.0 + x * x / 1e-3),
            amp * np.abs(x),
            amp * (x > 0),
            amp + 0.0 * w,  # equal errors on equal panels: ties broken by lo, hi
            np.where(x > 0, np.nan, w),
            np.sin(freq * w) * np.exp(w),
            1.0 / np.sqrt(np.abs(x) + 1e-300),  # finite at a node on p
        ])
    return np.array([out, w * out, (p - w) * out]) if case["vector"] else out


def outcome(engine, case, scalar_call=False):
    """Everything a caller can see: value bytes and shapes, errors, exception, and every node.

    With ``scalar_call`` the engine gets the case's one interval as scalars and calls
    the integrand with the nodes alone.
    """
    seen = []

    def f(x):
        w, k = x if not scalar_call else (x, np.zeros(x.size, dtype=int))
        seen.append(w.tobytes() + k.tobytes())
        return random_integrand(case, w, k)

    a, b, epsrel = case["a"], case["b"], case["epsrel"]
    if scalar_call:
        a, b, epsrel = float(a[0]), float(b[0]), float(np.reshape(epsrel, -1)[0])
    try:
        values, errors = engine(f, a, b, epsrel=epsrel, limit=case["limit"])
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None), seen
    if scalar_call:
        values, errors = [values], [errors]
    return ([(np.shape(v), np.asarray(v).tobytes()) for v in values],
            np.array(errors).tobytes(), seen)


def test_panel_table_reproduces_the_heap_engine_bit_for_bit():
    # a scalar_call case calls the heap engine with scalars, and the panel table with
    # the same interval as a batch of one
    mismatched = [seed for seed in range(400)
                  if outcome(adaptive_integral, random_case(seed))
                  != outcome(heap_integral, random_case(seed), random_case(seed)["scalar_call"])]
    assert mismatched == []
