"""Common-case fast paths equal the general paths they sit beside, bit for bit.

Each hot kernel skips its boolean masks when no node needs one (no W <= 0,
no omega' = 0, no node at corotation or past x = 700, no real Bessel
argument).  Every test here runs the fast path and then forces the general
path in the same process by appending the one node that needs the mask; the
entries the two calls share must agree exactly.  The PCHIP evaluator's
one-piece path is compared instead with the per-point search it replaced,
kept in ``spline_reference.py``, and the disk's conjugated outgoing wave
with the second-kind Hankel calls it replaced, kept in
``reference_routes.py``.  Nothing is compared with a stored digest,
so the tests hold whatever the platform's transcendentals.
"""

import hashlib

import numpy as np
import pytest

import reference_routes
import spline_reference
from spinrad import (
    ConstantEpsilon,
    DiskTable,
    Drude,
    Lorentz,
    MSumPolicy,
    SphereTable,
    TabulatedEpsilon,
    ThermalState,
    TorqueLaw,
    Vacuum,
    bose_occupation,
    disk_interior_frequency,
    disk_smatrix,
    langevin_step,
    mode_flux,
    simulate_ensemble,
    tabulate_torque_law,
    torque_law_from_radiation,
)
from spinrad import bessel, cli, rotor
from spinrad.rotor import _log_log_pchip, _pchip
from spinrad.scattering import _cyl_response, _dipole_alpha, _disk_matching

NAN = float("nan")
W = np.geomspace(0.013, 2.9, 41)  # strictly positive rates or frequencies
SIGNED = np.concatenate([-W[::-1], W])


def forced(fn, x, extra):
    """fn on x with `extra` appended (general path), the appended entries dropped."""
    n = np.shape(x)[-1]
    return fn(np.concatenate([x, extra]))[..., :n]


def same(a, b):
    np.testing.assert_array_equal(a, b, strict=True)


def numeric_law():
    # a steep two-column law: tabulated in log-log space
    return tabulate_torque_law(lambda w: (w**5 + 0.3 * w**3, 2.0 * w**5 / (1.0 + w)),
                               (0.0, 3.0))


class TestExpLogLog:
    @pytest.mark.parametrize("extra", [[0.0], [NAN], [-1.0]], ids=["zero", "nan", "negative"])
    def test_array(self, extra):
        law = numeric_law()
        for fn in (law.drift, law.diffusion, lambda w: np.stack(law.moments(w))):
            same(fn(W), forced(fn, W, extra))

    def test_scalar(self):
        law = numeric_law()
        for w in (0.013, 0.7, 2.9, 3.5):
            got = law.drift(w)
            assert type(got) is float
            assert got == law.drift(np.array([w, 0.0]))[0]
            assert list(law.moments(w)) == law.moments(np.array([w, 0.0]))[:, 0].tolist()

    def test_empty_and_non_finite(self):
        law = numeric_law()
        assert law.drift(np.empty(0)).shape == (0,)
        assert np.shape(law.moments(np.empty(0))) == (2, 0)
        assert law.drift(np.array([0.0, NAN])).tolist() == [0.0, 0.0]


class TestLangevinStep:
    def old_step(self, omega, law, I, dt, xi, drive):
        mbar, mbar2 = law.moments(omega)
        drift = -(1.0 / I) * (mbar - drive)
        noise = (1.0 / I) * np.sqrt(2.0 * mbar2 * dt) * xi
        return omega + drift * dt + noise

    @pytest.mark.parametrize("law", [TorqueLaw.power_law(0.7, 5), numeric_law()],
                             ids=["power", "numeric"])
    def test_equals_the_three_line_update(self, law):
        rng = np.random.default_rng(3)
        omega = rng.uniform(0.5, 1.5, 257)
        xi = rng.standard_normal(257)
        for drive in (0.0, 0.8):
            before = omega.copy()
            got = langevin_step(omega, law, 37.0, 0.013, xi, drive=drive)
            same(got, self.old_step(omega, law, 37.0, 0.013, xi, drive))
            same(omega, before)  # the input is not written to

    def test_scalar_law_values(self):
        law = TorqueLaw.from_moments(lambda w: (0.5, 2.0), lambda w: 0.0)
        got = langevin_step(np.array([1.0, 2.0]), law, 10.0, 0.1, np.array([0.3, -0.2]))
        same(got, self.old_step(np.array([1.0, 2.0]), law, 10.0, 0.1,
                                np.array([0.3, -0.2]), 0.0))


def same_bytes(a, b):
    """Equal shapes and bytes, NaN payloads and signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def piece_count(spline, t):
    """How many pieces the finite points of t take."""
    t = np.ravel(t)
    return len(np.unique(np.searchsorted(spline._inner, t[np.isfinite(t)], "right")))


def spline_inputs(x, rng):
    """Seeded evaluation points for breakpoints x: bands of 1-3 pieces, nodes, both ends."""
    n = len(x)
    span = x[-1] - x[0]
    cases = []
    for k in (1, 2, 3):
        for _ in range(60):
            p = int(rng.integers(0, n - k))  # pieces p .. p+k-1, the end pieces among them
            inside = [rng.uniform(x[p + j], x[p + j + 1]) for j in range(k)]  # one per piece
            t = np.concatenate([inside, rng.uniform(x[p], x[p + k], int(rng.integers(0, 600)))])
            if rng.random() < 0.5:
                t = np.append(t, x[p])  # the node that starts the band
            cases.append(rng.permutation(t))
    cases += [x, x[:-1], x[[3]], x[[3, 3]], np.array([x[3], np.nextafter(x[4], -np.inf)])]
    cases += [rng.uniform(x[0] - span, x[0], 100), np.append(rng.uniform(x[0] - span, x[1], 50), x[0])]
    cases += [x[[-1]], rng.uniform(x[-1], x[-1] + span, 100),
              np.append(rng.uniform(x[-2], x[-1] + span, 50), x[-1])]
    for specials in ([np.nan], [np.inf], [-np.inf], [np.nan, np.inf, -np.inf], [np.nan] * 3):
        p = int(rng.integers(0, n - 1))
        t = rng.uniform(x[p], x[p + 1], 64)
        cases.append(np.insert(t, rng.integers(0, 65, len(specials)), specials))
    cases += [np.array([np.inf]), np.array([np.inf, np.inf]), np.array([-np.inf]),
              np.array([np.nan]), np.array([np.nan, x[3]])]
    cases += [np.empty(0), np.empty((0, 3)), np.array(x[-2]), np.array(np.inf), float(x[2]),
              rng.uniform(x[1], x[2], (3, 7)), rng.uniform(x[0], x[3], (2, 5))]
    cases += [np.array([-0.0]), np.array(-0.0), np.array([-0.0, 0.0, 0.5])]  # s = -0.0 at x = 0
    return cases


def splines():
    grid = np.geomspace(2e-4, 2.0, 33)
    vals = np.column_stack([grid**5 + 0.3 * grid**3, 2.0 * grid**5 / (1.0 + grid)])
    return {"two-column-log-log": _log_log_pchip(grid, vals),
            "one-column-linear": _pchip(grid, grid**3 - 0.25 * grid),  # the signed drift
            # c0 = -0.0 at x[0] = 0.0: only the leading 0.0 + c0 makes f(-0.0) = +0.0
            "signed-zeros": _pchip(np.arange(5.0), np.array([-0.0, 1.0, -0.0, -0.0, 0.0]))}


class TestPiecewiseCubic:
    """The one-piece path and the narrowed search equal the per-point search, byte for byte."""

    @pytest.mark.parametrize("kind", list(splines()))
    def test_equals_the_per_point_search(self, kind):
        spline = splines()[kind]
        seen = set()
        for t in spline_inputs(spline.x, np.random.default_rng(29)):
            with np.errstate(all="ignore"):  # inf - x, then 0 * inf and inf - inf
                same_bytes(spline(t), spline_reference.evaluate(spline, t))
            seen.add(piece_count(spline, t))
        assert {0, 1, 2, 3} <= seen

    def test_thermal_ensemble_sha_equals_the_per_point_search(self, monkeypatch):
        # a T > 0 Drude sphere: 512 trajectories x 300 steps, one piece at some
        # steps and two at others; one SHA-256 with either evaluator
        law = torque_law_from_radiation(SphereTable(Drude(10.0), 0.01), ThermalState(T_object=0.5),
                                        omega_range=(0.0, 2.0), policy=MSumPolicy(m_max=2))
        dt = 0.02 * 1e4 / law.drift_derivative(1.0)
        counts = []
        production = rotor._PiecewiseCubic.__call__

        def counting(self, t):
            if np.size(t) == 512:
                counts.append(piece_count(self, t))
            return production(self, t)

        def sha():
            ens = simulate_ensemble(law, I=1e4, omega0=1.0, t_total=300 * dt, dt=dt, n_traj=512,
                                    seed=3, drive_at=1.0)
            return hashlib.sha256(ens.omegas.tobytes()).hexdigest()

        monkeypatch.setattr(rotor._PiecewiseCubic, "__call__", counting)
        fast = sha()
        assert set(counts) == {1, 2}
        monkeypatch.setattr(rotor._PiecewiseCubic, "__call__", spline_reference.evaluate)
        assert sha() == fast


class TestMaterial:
    @pytest.mark.parametrize("model", [
        Vacuum(),
        Lorentz(eps_inf=1.5, omega_p=2.0, omega_0=1.3, gamma=0.2),
        ConstantEpsilon(3.0, 0.4),
    ], ids=["vacuum", "lorentz", "constant"])
    def test_epsilon_against_zero_node(self, model):
        same(model.epsilon(SIGNED), forced(model.epsilon, SIGNED, [0.0]))

    @pytest.mark.parametrize("model", [
        Drude(2.0), TabulatedEpsilon([0.01, 1.0, 4.0], [4.0, 3.0, 2.0], [0.4, 0.2, 0.1]),
    ], ids=["drude", "tabulated"])
    def test_epsilon_against_masked_expression(self, model):
        # these responses have no value at omega = 0: compare with the masks spelled out
        w = np.append(SIGNED, NAN)
        ref = np.empty(w.shape, dtype=complex)
        nonzero = w != 0.0
        ref[nonzero] = model._positive(np.abs(w[nonzero]))
        neg = w < 0.0
        ref[neg] = ref[neg].conj()
        same(model.epsilon(w), ref)

    @pytest.mark.parametrize("T", [0.05, 0.5, 3.0])
    def test_bose_against_far_tail_node(self, T):
        fn = lambda w: bose_occupation(w, T)
        same(fn(SIGNED), forced(fn, SIGNED, [800.0 * T]))
        same(fn(SIGNED), forced(fn, SIGNED, [NAN]))

    def test_bose_empty(self):
        assert bose_occupation(np.empty(0), 0.5).shape == (0,)
        assert bose_occupation(np.empty(0), 0.0).shape == (0,)

    def test_epsilon_empty(self):
        for model in (Drude(1.0), ConstantEpsilon(2.0), Vacuum()):
            assert model.epsilon(np.empty(0)).shape == (0,)


class TestScattering:
    @pytest.mark.parametrize("model", [Drude(10.0), ConstantEpsilon(3.0, 0.4)],
                             ids=["drude", "constant"])
    def test_dipole_alpha_against_zero_node(self, model):
        fn = lambda w: _dipole_alpha(model, 0.01, w)
        same(fn(SIGNED), forced(fn, SIGNED, [0.0]))
        assert fn(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("model", [Drude(1000.0), ConstantEpsilon(3.0, 0.4)],
                             ids=["drude", "constant"])
    def test_cylinder_response_against_zero_node(self, model):
        fn = lambda w: _cyl_response(model, w)
        same(fn(SIGNED), forced(fn, SIGNED, [0.0]))
        assert fn(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("m", [-2, 0, 1, 3])
    def test_interior_frequency_against_corotation_node(self, m):
        fn = lambda w: disk_interior_frequency(Drude(1.0), 1.0, w, m)
        same(fn(W), forced(fn, W, [float(m)]))  # omega' = 0 at omega = Omega*m

    def test_bessel_j_against_real_argument(self):
        z = W * (1.0 + 0.3j)
        for m in (-3, 0, 2):
            fn = lambda zz: bessel.bessel_j_and_deriv(m, zz)[0]
            same(fn(z), forced(fn, z, [1.5 + 0j]))
        assert bessel.bessel_j_and_deriv(1, np.empty(0, dtype=complex))[0].shape == (0,)

    @staticmethod
    def old_j_deriv(m, z):
        k = abs(m)
        zero = z == 0
        zs = np.where(zero, 1.0, z)
        J = lambda n: bessel.bessel_j_and_deriv(n, zs)[0]
        d = J(k - 1) - (k / zs) * J(k)
        d[zero] = 0.5 if k == 1 else 0.0
        return (-1) ** (-m) * d if m < 0 else d

    @staticmethod
    def old_h_deriv(m, z):
        za = np.asarray(z, dtype=complex)
        k = abs(m)
        d = bessel.hankel(k - 1, za) - (k / za) * bessel.hankel(k, za)
        return (-1) ** (-m) * d if m < 0 else d

    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 5])
    def test_disk_matching_against_six_call_expression(self, m):
        model, R, Omega = Drude(1.0), 0.1, 1.0
        w = np.append(W, [float(m)] if m > 0 else [])  # a corotation node where there is one
        wt, J, Jp, H, Hp, den = _disk_matching(model, R, Omega, w, m)
        zj, zh = wt * R, w * R
        same(J, bessel.bessel_j_and_deriv(m, zj)[0])
        same(Jp, self.old_j_deriv(m, zj))
        same(H, bessel.hankel(m, zh))
        same(Hp, self.old_h_deriv(m, zh))
        same(den, wt * self.old_j_deriv(m, zj) * bessel.hankel(m, zh)
             - bessel.bessel_j_and_deriv(m, zj)[0] * w * self.old_h_deriv(m, zh))

    @pytest.mark.parametrize("m", [-2, 0, 3])
    def test_derivative_pairs_against_recurrence(self, m):
        z = np.array([0.0, 0.4, 2.0 + 0.5j, 7.0 - 1.0j, 15.0])
        same(bessel.bessel_j_and_deriv(m, z)[1], self.old_j_deriv(m, z))
        same(bessel.hankel_and_deriv(m, z[1:].real)[1], self.old_h_deriv(m, z[1:].real))

    @pytest.mark.parametrize("model", [Drude(1.0), Lorentz(1.5, 2.0, 1.3, 0.2),
                                       ConstantEpsilon(3.0, 0.4)],
                             ids=["drude", "lorentz", "constant"])
    def test_disk_smatrix_equals_the_second_kind_route(self, model):
        # omega*R over [1e-6, 1e3] at R = 1, through corotation at Omega = 1
        w, R, Omega = np.geomspace(1e-6, 1e3, 271), 1.0, 1.0
        orders = np.arange(-8, 9)
        for m in orders.tolist():
            same(disk_smatrix(model, R, Omega, w, m),
                 reference_routes.disk_smatrix_h2(model, R, Omega, w, m))
            for x in w[::30].tolist():
                assert (np.asarray(disk_smatrix(model, R, Omega, x, m)).tobytes()
                        == np.asarray(reference_routes.disk_smatrix_h2(model, R, Omega, x,
                                                                       m)).tobytes())
        per_node = np.resize(orders, w.shape)
        same(disk_smatrix(model, R, Omega, w, per_node),
             reference_routes.disk_smatrix_h2(model, R, Omega, w, per_node))

    @pytest.mark.parametrize("sigma", [0.8, 1.0, 1.25])
    @pytest.mark.parametrize("R", [0.08, 0.1, 0.12])
    def test_disk_smatrix_user_table_rows_equal_the_second_kind_route(self, sigma, R):
        # the rows bench/workloads.py writes for its user-table op: 17 per window
        model = Drude(sigma)
        for Omega in (0.9, 1.0, 1.1):
            for m in (1, 2):
                for w in np.linspace(Omega * m / 32.0, Omega * m, 17).tolist():
                    S = disk_smatrix(model, R, Omega, w, m)
                    ref = reference_routes.disk_smatrix_h2(model, R, Omega, w, m)
                    assert (repr(S.real), repr(S.imag)) == (repr(ref.real), repr(ref.imag))


class TestThermalModeFlux:
    STATE = ThermalState(T_object=0.5, T_env=0.2, Omega=0.8)

    @pytest.mark.parametrize("table, m", [
        (DiskTable(Drude(1.0), 0.1), 1),
        (DiskTable(Drude(1.0), 0.1), 2),
        (SphereTable(Drude(10.0), 0.01), 1),
    ], ids=["disk-1", "disk-2", "sphere-1"])
    def test_against_corotation_node(self, table, m):
        fn = lambda w: mode_flux(table, self.STATE, w, m)
        same(fn(W), forced(fn, W, [self.STATE.Omega * m]))

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_empty(self, m):
        table = SphereTable(Drude(10.0), 0.01)
        assert mode_flux(table, self.STATE, np.empty(0), m).shape == (0,)


class TestWriteCsv:
    def old_write(self, path, meta, columns, rows):
        lines = [f"# {k}: {v}" for k, v in cli._flatten_meta(meta)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(cli._fmt(v) for v in row))
        path.write_text("\n".join(lines) + "\n")

    def test_same_bytes_as_the_per_cell_writer(self, tmp_path):
        rows = [
            (0.1, 1, np.float64(2.5), None, True, "scalar", np.int64(7), 1e-300),
            (np.float64(-0.0), np.int64(2), 3.0, 1.5, False, "E", np.int64(8), NAN),
            (1 / 3, 3, np.float64(1e300), None, True, "M", np.int64(-1), float("inf")),
        ]
        columns = list("abcdefgh")
        meta = {"seed": 3, "flags": {"x": np.float64(0.25), "y": None}}
        self.old_write(tmp_path / "old.csv", meta, columns, rows)
        cli._write_csv(tmp_path / "new.csv", meta, columns, list(zip(*rows)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_rows(self, tmp_path):
        self.old_write(tmp_path / "old.csv", {}, ["a", "b"], [])
        cli._write_csv(tmp_path / "new.csv", {}, ["a", "b"], [[], []])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_by_column_equals_the_row_writer(self, tmp_path, fmt):
        # the trajectory table's layout: a float column repeated per trajectory,
        # an int id column and a float column, plus None and np.float64 cells
        times, omegas = [0.0, 0.5, 1.0], np.arange(6.0).reshape(2, 3) / 7
        columns = [times * 2, [0, 0, 0, 1, 1, 1], omegas.ravel().tolist(),
                   [None, np.float64(0.25), 1, None, 2.5, np.float64(-1e-300)]]
        rows = [(t, j, w, x) for j, wrow in enumerate(omegas.tolist())
                for t, w, x in zip(times, wrow, columns[3][3 * j:])]
        meta = {"seed": 1}
        names = ["t", "traj_id", "omega", "x"]
        path = cli._write_table(tmp_path, "new", fmt, meta, names, columns)
        if fmt == "csv":
            self.old_write(tmp_path / "old.csv", meta, names, rows)
            assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()
        else:
            cli._write_json(tmp_path / "old.json", {"meta": meta, "columns": names,
                                                    "rows": [list(r) for r in rows]})
            assert path.read_bytes() == (tmp_path / "old.json").read_bytes()
