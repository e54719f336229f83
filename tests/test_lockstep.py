"""Lock-step channel integrals: a batch of rates, channels and segments has the bits of each alone.

A stage batch hands ``mode_flux`` one rotation rate per node, so every table's
flux with an array of rates must equal the stacked scalar-rate calls, and a
scalar-node call its entry of an array call; and each integral of a batch,
however the stages are split into batches, must equal the same integral run
alone, the segments of its support added left to right.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinrad import (
    ConvergenceError,
    CylinderTable,
    DiskTable,
    Drude,
    SphereTable,
    ThermalState,
    UserTable,
    disk_smatrix,
    mode_flux,
    tabulate_torque_law,
)
from spinrad.quadrature import adaptive_integral
from spinrad.radiation import (
    TWO_PI,
    channel_stage,
    integrate_stages,
    run_jobs,
)


def user_table():
    om = np.linspace(0.05, 3.0, 24)
    return UserTable({(m, None, "scalar"): (om, disk_smatrix(Drude(1.0), 0.1, 1.0, om, m))
                      for m in (-1, 1, 2)})


TABLES = {
    "disk": DiskTable(Drude(1.0), 0.1),
    "sphere": SphereTable(Drude(10.0), 0.01),
    "sphere-exact": SphereTable(Drude(10.0), 0.01, exact=True),
    "cylinder": CylinderTable(Drude(10.0), 0.01, 1.0),
    "cylinder-exact": CylinderTable(Drude(10.0), 0.01, 1.0, exact=True),
    "user": user_table(),
}
# rates and nodes: node 2 sits at corotation omega = Omega*m for m = 1
OMEGAS = np.array([0.4, 0.4, 1.1, 1.1, 1.7, 0.9, 2.3])
NODES = np.array([0.2, 0.7, 1.1, 1.6, 0.35, 2.9, 1.2])


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("m", [-1, 1])
def test_flux_with_a_rate_per_node_equals_scalar_rate_calls(name, m):
    table = TABLES[name]
    extra, pol = table.channel_labels(m)[0]
    got = table.flux(NODES, m, extra, pol, OMEGAS)
    ref = [table.flux(NODES, m, extra, pol, W)[i] for i, W in enumerate(OMEGAS.tolist())]
    assert got.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("name", TABLES)
@settings(derandomize=True, deadline=None)
@given(m=st.sampled_from([-1, 1]), Omega=st.floats(0.5, 2.0),
       nodes=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=12))
def test_scalar_flux_call_equals_its_entry_of_an_array_call(name, m, Omega, nodes):
    table = TABLES[name]
    extra, pol = table.channel_labels(m)[0]
    got = table.flux(np.array(nodes), m, extra, pol, Omega)
    ref = [table.flux(w, m, extra, pol, Omega) for w in nodes]
    assert got.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("temps", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.2)], ids=["T0", "Tobj", "Tenv"])
def test_mode_flux_with_a_rate_per_node_equals_scalar_rate_calls(name, temps):
    table = TABLES[name]
    m = 1
    extra, pol = table.channel_labels(m)[0]
    got = mode_flux(table, ThermalState(*temps, OMEGAS), NODES, m, extra, pol)
    ref = [mode_flux(table, ThermalState(*temps, W), NODES, m, extra, pol)[i]
           for i, W in enumerate(OMEGAS.tolist())]
    assert got.tobytes() == np.array(ref).tobytes()
    assert np.isfinite(got).all()


def moments_weight(w, m, N):
    return np.array([m * m * N * (N + 1.0), m * N])


def power_weight(w, m, N):
    return np.array([w * N, m * N])


def alone(stage):
    """Each channel of the stage, each segment its own scalar quadrature, added left to right."""
    out = []
    for m, extra, pol, points in stage.channels:
        def integrand(w):
            return stage.weight(w, m, mode_flux(stage.table, stage.state, w, m, extra, pol)) / TWO_PI
        parts = [adaptive_integral(integrand, a, b, epsrel=stage.epsrel)
                 for a, b in zip(points, points[1:])]
        total, err = parts[0]
        for val, e in parts[1:]:
            total, err = total + val, err + e
        out.append((m, extra, pol, total, err))
    return out


def stage_of(name, state, weight, m_max, epsrel=1e-9):
    table = TABLES[name]
    labels = [(m, extra, pol) for m in table.m_values(m_max)
              for extra, pol in table.channel_labels(m)]
    return channel_stage(table, state, weight, labels, m_max, epsrel)


def test_mixed_batch_equals_each_integral_alone():
    # rates, channels and segments of several tables, weights and tolerances at once
    stages = [stage_of("sphere", ThermalState(0.5, 0.0, W), moments_weight, 2) for W in
              (0.6, 1.3, 2.0)]
    stages += [stage_of("disk", ThermalState(0.0, 0.0, W), moments_weight, 2) for W in (1.0, 1.5)]
    stages += [stage_of("cylinder", ThermalState(0.5, 0.1, 0.9), power_weight, 1, 1e-8),
               stage_of("user", ThermalState(0.0, 0.0, 1.0), power_weight, 2),
               stage_of("disk", ThermalState(0.3, 0.0, 1.2), power_weight, 2)]
    assert any(len(points) == 3 for s in stages for *_, points in s.channels)
    batch = integrate_stages(stages)
    for stage, got in zip(stages, batch):
        ref = alone(stage)
        assert [c[:3] for c in got] == [c[:3] for c in ref]
        for (*_, val, err), (*_, rval, rerr) in zip(got, ref):
            assert val.tobytes() == rval.tobytes() and err == rerr


# (table, T_object): at T > 0 only the tables whose flux vanishes at omega = Omega*m, where
# n diverges; the exact blocks keep an O(R^4) flux there and the user table has no row there
STAGE_KINDS = [(name, T) for name in sorted(TABLES) for T in (0.0, 0.3)
               if not T or name in ("disk", "sphere", "cylinder")]


@st.composite
def stage_batches(draw):
    """Random stages over TABLES, dealt into 1 to 4 batches."""
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        name, T = draw(st.sampled_from(STAGE_KINDS))
        weight = draw(st.sampled_from([moments_weight, power_weight]))
        state = ThermalState(T, 0.0, draw(st.floats(0.5, 2.0)))
        stages.append(stage_of(name, state, weight, draw(st.sampled_from([1, 2]))))
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


def test_stalled_channel_of_a_batch_names_its_m_and_rate():
    # a thermal user table without a row at omega = Omega*m: the m = 1 integral stalls
    stages = [stage_of("sphere", ThermalState(0.5, 0.0, 0.7), moments_weight, 1),
              stage_of("user", ThermalState(0.3, 0.0, 1.0), power_weight, 2)]
    with pytest.raises(ConvergenceError, match=r"channel m=1, .* at Omega=1: ") as exc:
        integrate_stages(stages)
    assert exc.value.m == 1


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
