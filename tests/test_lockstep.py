"""Lock-step channel integrals: a batch of rates, channels and segments has the bits of each alone.

A stage batch hands ``mode_flux`` one m and one rotation rate per node, so
every table's flux with arrays of m and rates must equal the scalar calls,
and a scalar-node call its entry of an array call; and each integral of a
batch, however the stages are split into batches, must equal the same
integral run alone, the segments of its support added left to right.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinrad import (
    ConvergenceError,
    CylinderTable,
    DiskTable,
    DomainError,
    Drude,
    MSumPolicy,
    ResonanceError,
    SphereTable,
    ThermalState,
    UserTable,
    disk_smatrix,
    integrate_power,
    mode_flux,
    tabulate_torque_law,
)
from spinrad import radiation
from spinrad.radiation import (
    TWO_PI,
    channel_stage,
    integrate_stages,
    run_jobs,
)
from spinrad.scattering import ChannelTable

from reference_routes import ExactCylinderTable, ExactSphereTable, integrate_one


def user_table():
    om = np.linspace(0.05, 3.0, 24)
    return UserTable({(m, None, "scalar"): (om, disk_smatrix(Drude(1.0), 0.1, 1.0, om, m))
                      for m in (-1, 1, 2)})


TABLES = {
    "disk": DiskTable(Drude(1.0), 0.1),
    "sphere": SphereTable(Drude(10.0), 0.01),
    "sphere-exact": ExactSphereTable(Drude(10.0), 0.01),
    "cylinder": CylinderTable(Drude(10.0), 0.01, 1.0),
    "cylinder-exact": ExactCylinderTable(Drude(10.0), 0.01, 1.0),
    "user": user_table(),
}
# rates and nodes: node 2 sits at corotation omega = Omega*m for m = 1
OMEGAS = np.array([0.4, 0.4, 1.1, 1.1, 1.7, 0.9, 2.3])
NODES = np.array([0.2, 0.7, 1.1, 1.6, 0.35, 2.9, 1.2])


def label(table, m):
    """(extra, pol) of the table's first channel at angular momentum m."""
    return next((extra, pol) for mm, extra, pol in table.channels(abs(m)) if mm == m)


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("m", [-1, 1])
def test_flux_with_a_rate_per_node_equals_scalar_rate_calls(name, m):
    table = TABLES[name]
    extra, pol = label(table, m)
    got = table.flux(NODES, m, extra, pol, OMEGAS)
    ref = [table.flux(NODES, m, extra, pol, W)[i] for i, W in enumerate(OMEGAS.tolist())]
    assert got.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("name", TABLES)
@settings(derandomize=True, deadline=None)
@given(m=st.sampled_from([-1, 1]), Omega=st.floats(0.5, 2.0),
       nodes=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=12))
def test_scalar_flux_call_equals_its_entry_of_an_array_call(name, m, Omega, nodes):
    table = TABLES[name]
    extra, pol = label(table, m)
    got = table.flux(np.array(nodes), m, extra, pol, Omega)
    ref = [table.flux(w, m, extra, pol, Omega) for w in nodes]
    assert got.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("temps", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.2)], ids=["T0", "Tobj", "Tenv"])
def test_mode_flux_with_a_rate_per_node_equals_scalar_rate_calls(name, temps):
    table = TABLES[name]
    m = 1
    extra, pol = label(table, m)
    got = mode_flux(table, ThermalState(*temps, OMEGAS), NODES, m, extra, pol)
    ref = [mode_flux(table, ThermalState(*temps, W), NODES, m, extra, pol)[i]
           for i, W in enumerate(OMEGAS.tolist())]
    assert got.tobytes() == np.array(ref).tobytes()
    assert np.isfinite(got).all()


@st.composite
def channel_nodes(draw, table):
    """1 to 12 nodes (omega, m, Omega) over the table's m, some at corotation omega = Omega*m."""
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        m = draw(st.sampled_from([m for m, *_ in table.channels(2)]))
        Omega = draw(st.floats(0.5, 2.0))
        w = Omega * m
        if not (draw(st.booleans()) and 0.05 < w < 3.0):
            w = draw(st.floats(0.05, 3.0))
        nodes.append((w, m, Omega))
    return nodes


@pytest.mark.parametrize("name", TABLES)
@settings(derandomize=True, deadline=None)
@given(data=st.data(), temps=st.sampled_from([(0.0, 0.0), (0.5, 0.0), (0.5, 0.2)]))
def test_flux_and_mode_flux_with_an_m_and_rate_per_node_equal_scalar_calls(name, data, temps):
    table = TABLES[name]
    nodes = data.draw(channel_nodes(table))
    w, m, Omega = (np.array(column) for column in zip(*nodes))
    extra, pol = label(table, 1)  # every m of a table shares its (extra, pol)
    got = table.flux(w, m, extra, pol, Omega)
    ref = [table.flux(*node[:2], extra, pol, node[2]) for node in nodes]
    assert got.tobytes() == np.array(ref).tobytes()
    got = mode_flux(table, ThermalState(*temps, Omega), w, m, extra, pol)
    ref = [mode_flux(table, ThermalState(*temps, W), x, mm, extra, pol) for x, mm, W in nodes]
    assert got.tobytes() == np.array(ref).tobytes()


def moments_weight(w, m, N):
    return np.array([m * m * N * (N + 1.0), m * N])


def power_weight(w, m, N):
    return np.array([w * N, m * N])


def graded(integrand, lo, hi):
    """The integrand in tau on (0, 1): omega = lo + (hi - lo)*tau^2*(3 - 2*tau), inside (lo, hi)."""
    def in_tau(t):
        w = np.clip(lo + (hi - lo) * (t * t * (3.0 - 2.0 * t)), np.nextafter(lo, hi),
                    np.nextafter(hi, lo))
        return integrand(w) * (6.0 * (hi - lo) * (t * (1.0 - t)))
    return in_tau


def alone(stage):
    """Each channel of the stage, each segment its own quadrature, added left to right."""
    out = []
    for m, extra, pol, points in stage.channels:
        def integrand(w):
            return stage.weight(w, m, mode_flux(stage.table, stage.state, w, m, extra, pol)) / TWO_PI
        if stage.graded:
            parts = [integrate_one(graded(integrand, a, b), 0.0, 1.0, epsrel=stage.epsrel)
                     for a, b in zip(points, points[1:])]
        else:
            parts = [integrate_one(integrand, a, b, epsrel=stage.epsrel)
                     for a, b in zip(points, points[1:])]
        total, err = parts[0]
        for val, e in parts[1:]:
            total, err = total + val, err + e
        out.append((m, extra, pol, total, err))
    return out


def stage_of(name, state, weight, m_max, epsrel=1e-9, graded=False):
    table = TABLES[name]
    return channel_stage(table, state, weight, table.channels(m_max), m_max, epsrel, graded)


def test_mixed_batch_equals_each_integral_alone():
    # rates, channels and segments of several tables, weights and tolerances at once,
    # graded and plain
    stages = [stage_of("sphere", ThermalState(0.5, 0.0, W), moments_weight, 2) for W in
              (0.6, 1.3, 2.0)]
    stages += [stage_of("disk", ThermalState(0.0, 0.0, W), moments_weight, 2) for W in (1.0, 1.5)]
    stages += [stage_of("cylinder", ThermalState(0.5, 0.1, 0.9), power_weight, 1, 1e-8),
               stage_of("user", ThermalState(0.0, 0.0, 1.0), power_weight, 2),
               stage_of("disk", ThermalState(0.3, 0.0, 1.2), power_weight, 2),
               stage_of("disk", ThermalState(0.0, 0.0, 1.0), moments_weight, 2, graded=True),
               stage_of("sphere", ThermalState(0.5, 0.0, 0.7), moments_weight, 1, graded=True)]
    assert any(len(points) == 3 for s in stages for *_, points in s.channels)
    assert any(s.graded and len(points) == 3 for s in stages for *_, points in s.channels)
    batch = integrate_stages(stages)
    for stage, got in zip(stages, batch):
        ref = alone(stage)
        assert [c[:3] for c in got] == [c[:3] for c in ref]
        for (*_, val, err), (*_, rval, rerr) in zip(got, ref):
            assert val.tobytes() == rval.tobytes() and err == rerr


def test_only_a_table_with_a_smooth_flux_is_graded():
    # linear interpolation between a user table's rows puts kinks in its flux
    state = ThermalState(0.0, 0.0, 1.0)
    for name in TABLES:
        assert stage_of(name, state, power_weight, 1, graded=True).graded == (name != "user")
        assert not stage_of(name, state, power_weight, 1).graded


class Recording(ChannelTable):
    """A table that records (node count, m, Omega) of every flux call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def channels(self, m_max):
        return self.inner.channels(m_max)

    def omega_domain(self, m, extra, pol):
        return self.inner.omega_domain(m, extra, pol)

    def flux(self, omega, m, extra, pol, Omega):
        self.calls.append((np.size(omega), m, Omega))
        return self.inner.flux(omega, m, extra, pol, Omega)


@pytest.mark.parametrize("name, T, m_max", [("sphere", 0.0, 1), ("disk", 0.0, 2),
                                            ("disk", 0.3, 2), ("user", 0.0, 2)])
def test_every_stage_flux_call_gets_one_m_and_one_rate_per_node(name, T, m_max):
    # a single channel at a single rate included: there is no shared-scalar path
    table = Recording(TABLES[name])
    stage = channel_stage(table, ThermalState(T, 0.0, 1.1), power_weight,
                          table.channels(m_max), m_max)
    integrate_stages([stage])
    assert table.calls
    for n, m, Omega in table.calls:
        assert isinstance(m, np.ndarray) and isinstance(Omega, np.ndarray)
        assert m.shape == Omega.shape == (n,)


# (table, T_object): at T > 0 only the tables whose flux vanishes at omega = Omega*m, where
# n diverges; the exact blocks keep an O(R^4) flux there and the user table has no row there
STAGE_KINDS = [(name, T) for name in sorted(TABLES) for T in (0.0, 0.3)
               if not T or name in ("disk", "sphere", "cylinder")]


@st.composite
def stage_batches(draw):
    """Random stages over TABLES, graded or not, dealt into 1 to 4 batches."""
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        name, T = draw(st.sampled_from(STAGE_KINDS))
        weight = draw(st.sampled_from([moments_weight, power_weight]))
        state = ThermalState(T, 0.0, draw(st.floats(0.5, 2.0)))
        stages.append(stage_of(name, state, weight, draw(st.sampled_from([1, 2])),
                               graded=draw(st.booleans())))
    n = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=len(stages), max_size=len(stages)))
    return [[s for s, k in zip(stages, owner) if k == b] for b in range(n)]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(batches=stage_batches())
def test_every_split_of_random_stages_keeps_each_channel_alone(batches):
    for batch in filter(None, batches):
        for stage, got in zip(batch, integrate_stages(batch)):
            ref = alone(stage)
            assert [c[:3] for c in got] == [c[:3] for c in ref]
            for (*_, val, err), (*_, rval, rerr) in zip(got, ref):
                assert val.tobytes() == rval.tobytes() and err == rerr


class Broken(ChannelTable):
    """A table whose channel m = bad has a NaN flux, so its integrals stall.

    Records the nodes, m and flux of every call.
    """

    def __init__(self, inner, bad):
        self.inner, self.bad, self.calls = inner, bad, []

    def channels(self, m_max):
        return self.inner.channels(m_max)

    def omega_domain(self, m, extra, pol):
        return self.inner.omega_domain(m, extra, pol)

    def flux(self, omega, m, extra, pol, Omega):
        F = self.inner.flux(omega, m, extra, pol, Omega)
        self.calls.append((np.broadcast_to(m, np.shape(omega)), np.copy(omega), F))
        return np.where(np.equal(m, self.bad), np.nan, F)

    def seen_by(self, m):
        """The (nodes, flux) of each call that held nodes of channel m."""
        return [(w[ms == m].tobytes(), F[ms == m].tobytes())
                for ms, w, F in self.calls if (ms == m).any()]


def broken_stage(name, state, weight, m_max, bad):
    stage = stage_of(name, state, weight, m_max)
    return stage._replace(table=Broken(stage.table, bad))


def test_stalled_channel_of_a_batch_names_its_m_and_rate():
    # the m = 1 channel of the user table shares its flux call with m = 2
    stages = [stage_of("sphere", ThermalState(0.5, 0.0, 0.7), moments_weight, 1),
              broken_stage("user", ThermalState(0.0, 0.0, 1.0), power_weight, 2, bad=1)]
    with pytest.raises(ConvergenceError, match=r"channel m=1, .* at Omega=1: ") as exc:
        integrate_stages(stages)
    assert exc.value.m == 1


def test_numeric_fault_of_a_grouped_call_names_the_first_channel_that_fails_alone():
    class Resonant(DiskTable):
        def flux(self, omega, m, extra, pol, Omega):
            if np.any(np.equal(m, 2)):
                raise ResonanceError("eps = -2 plasmon pole")
            return super().flux(omega, m, extra, pol, Omega)

    # m = 1, 2, 3 share each flux call; only the m = 2 nodes, on (0, 2), fail alone
    stage = channel_stage(Resonant(Drude(1.0), 0.1), ThermalState(0.0, 0.0, 1.0), power_weight,
                          [(m, None, "scalar") for m in (1, 2, 3)], 3)
    with pytest.raises(ResonanceError, match=r"^channel m=2, extra=None, pol=scalar at omega "
                       r"in \[(\S+), (\S+)\]: eps = -2 plasmon pole$") as exc:
        integrate_stages([stage])
    lo, hi = re.search(r"\[(\S+), (\S+)\]", str(exc.value)).groups()
    assert 0.0 < float(lo) < float(hi) < 2.0


# (table, T_object) whose stage holds more than one channel, so one flux call holds several m
GROUPED_KINDS = [(name, T) for name, T in STAGE_KINDS
                 if len(stage_of(name, ThermalState(T, 0.0, 1.0), power_weight, 2).channels) > 1]


@settings(derandomize=True, max_examples=15, deadline=None)
@given(kind=st.sampled_from(GROUPED_KINDS), Omega=st.floats(0.5, 2.0),
       weight=st.sampled_from([moments_weight, power_weight]), pick=st.integers(0, 4))
def test_stalled_member_of_a_grouped_call_names_its_m_and_leaves_neighbours_alone(
        kind, Omega, weight, pick):
    name, T = kind
    state = ThermalState(T, 0.0, Omega)
    ms = [m for m, *_ in stage_of(name, state, weight, 2).channels]
    bad = ms[pick % len(ms)]
    stage = broken_stage(name, state, weight, 2, bad)
    with pytest.raises(ConvergenceError, match=rf"^channel m={bad}, ") as exc:
        integrate_stages([stage])
    assert exc.value.m == bad
    # without the stalled channel its neighbours see the same nodes and flux bits
    healthy = broken_stage(name, state, weight, 2, bad)
    healthy = healthy._replace(channels=[c for c in healthy.channels if c[0] != bad])
    integrate_stages([healthy])
    for m in ms:
        if m != bad:
            assert stage.table.seen_by(m) == healthy.table.seen_by(m)


def test_graded_nodes_stay_inside_their_segment_and_a_stall_names_it_in_omega():
    # a weight ~ (Omega*m - omega)^-0.9 drives the graded bisection toward tau -> 1,
    # where lo + (hi - lo)*tau^2*(3 - 2*tau) rounds onto hi = Omega*m
    table = Broken(DiskTable(Drude(1.0), 0.1), bad=0)
    stage = channel_stage(table, ThermalState(0.0, 0.0, 0.7),
                          lambda w, m, N: np.array([N / (0.7 * m - w) ** 1.9]),
                          [(1, None, "scalar")], 1, graded=True)
    with pytest.raises(ConvergenceError, match=r"^channel m=1, extra=None, pol=scalar on "
                       r"support \[0\.0, 0\.7\] at Omega=0\.7: quadrature on \(0, 0\.7\), "
                       r"graded, stalled: ") as exc:
        integrate_stages([stage])
    # the default subdivision limit holds through the last round
    assert int(re.search(r"after (\d+) panels", str(exc.value)).group(1)) <= 300
    w = np.concatenate([w for _, w, _ in table.calls])
    assert 0.0 < w.min() and w.max() < 0.7
    assert (w == np.nextafter(0.7, 0.0)).any()  # some node rounded onto hi and was kept off it


def test_stalled_channel_with_a_corotation_pole_is_a_domain_error():
    # a thermal user table without a row at omega = Omega*m = 1
    stages = [stage_of("sphere", ThermalState(0.5, 0.0, 0.7), moments_weight, 1),
              stage_of("user", ThermalState(0.3, 0.0, 1.0), power_weight, 2)]
    with pytest.raises(DomainError, match=r"^channel m=1, extra=None, pol=scalar: the flux "
                       r"factor is 3\.95096e-06, not 0, at corotation omega = Omega\*m = 1,"):
        integrate_stages(stages)


@pytest.mark.parametrize("name", ["sphere-exact", "cylinder-exact"])
def test_exact_tables_have_a_corotation_pole_at_T_object_above_0(name):
    # the exact flux keeps its O(R^4) magnitude -|X|^2 at omega = Omega*m
    stage = stage_of(name, ThermalState(0.3, 0.0, 1.0), power_weight, 1)
    F = TABLES[name].flux(1.0, 1, *label(TABLES[name], 1), 1.0)
    assert F < 0.0
    with pytest.raises(DomainError, match=rf"^channel m=1, .*: the flux factor is {F:g}, "
                       r"not 0, at corotation omega = Omega\*m = 1,"):
        integrate_stages([stage])


def test_jobs_run_in_lock_step_and_pairs_are_finished_jobs():
    table = TABLES["sphere"]
    rounds = []

    def job(W):
        st = ThermalState(0.5, 0.0, W)
        labels = [(1, 1, "E"), (-1, 1, "E")]
        first = yield channel_stage(table, st, moments_weight, labels[:1], 1)
        rounds.append(W)
        second = yield channel_stage(table, st, moments_weight, labels[1:], 1)
        return first + second

    pair = (1.0, 2.0)
    got = run_jobs([job(0.8), pair, job(1.4)])
    assert got[1] is pair and rounds == [0.8, 1.4]
    for W, channels in ((0.8, got[0]), (1.4, got[2])):
        ref = alone(stage_of("sphere", ThermalState(0.5, 0.0, W), moments_weight, 1))
        ref = [c for c in ref if c[0] == 1] + [c for c in ref if c[0] == -1]
        for (*_, val, err), (*_, rval, rerr) in zip(channels, ref):
            assert val.tobytes() == rval.tobytes() and err == rerr


def test_tabulation_drives_moment_jobs_and_plain_pairs_alike():
    def as_job(W):
        channels = yield stage_of("sphere", ThermalState(0.5, 0.0, W), moments_weight, 1)
        out = np.zeros(2)
        for *_, val, _ in channels:
            out += val
        return out[::-1]

    def as_pair(W):
        out = np.zeros(2)
        for *_, val, _ in alone(stage_of("sphere", ThermalState(0.5, 0.0, W), moments_weight, 1)):
            out += val
        return out[::-1]

    w = np.linspace(0.05, 2.0, 41)
    laws = [tabulate_torque_law(f, (0.0, 2.0), rtol=1e-6) for f in (as_job, as_pair)]
    for a, b in zip(laws[0].moments(w), laws[1].moments(w)):
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def engine_calls(monkeypatch):
    """Per quadrature-engine call, the (m, extra, pol) of every channel its batch integrates."""
    calls, batch = [], []
    integrate, adaptive_integral = radiation.integrate_stages, radiation.adaptive_integral

    def recorded_stages(stages):
        batch[:] = [channel[:3] for stage in stages for channel in stage.channels]
        return integrate(stages)

    def recorded_call(*args, **kw):
        calls.append(list(batch))
        return adaptive_integral(*args, **kw)

    monkeypatch.setattr(radiation, "integrate_stages", recorded_stages)
    monkeypatch.setattr(radiation, "adaptive_integral", recorded_call)
    return calls


@pytest.mark.parametrize("T, probe", [(0.0, {2}), (0.3, {-2, 2})])
def test_a_fixed_sum_and_its_probe_shell_are_one_engine_call(engine_calls, T, probe):
    policy = MSumPolicy(m_max=1, raise_on_tail=False)
    res = integrate_power(TABLES["disk"], ThermalState(T, 0.0, 1.1), policy)
    assert len(engine_calls) == 1
    summed = [c.m for c in res.per_mode]
    assert sorted(m for m, _, _ in engine_calls[0]) == sorted(summed + list(probe))
    assert res.truncation_tail > 0.0


def test_auto_extend_integrates_each_shell_once_in_one_call_per_shell(engine_calls):
    res = integrate_power(DiskTable(Drude(1.0), 0.45), ThermalState(Omega=1.0),
                          MSumPolicy(m_max=1, auto_extend=True, tail_tol=1e-9))
    m_used = max(c.m for c in res.per_mode)
    grown = m_used - 1
    assert grown >= 2
    assert len(engine_calls) == grown + 1
    integrated = [label for call in engine_calls for label in call]
    assert len(integrated) == len(set(integrated))
    # at T = 0 only m >= 1 radiates: the summed shells and the probe past the last
    assert integrated == [(m, None, "scalar") for m in range(1, m_used + 2)]
