"""Common-case fast paths equal the general paths they sit beside, bit for bit.

Each hot kernel skips its boolean masks when no node needs one (no W <= 0,
no omega' = 0, no node at corotation or past x = 700, no real Bessel
argument).  Every test here runs the fast path and then forces the general
path in the same process by appending the one node that needs the mask; the
entries the two calls share must agree exactly.  Nothing is compared with a
stored digest, so the tests hold whatever the platform's transcendentals.
"""

import numpy as np
import pytest

from spinrad import (
    ConstantEpsilon,
    DiskTable,
    Drude,
    Lorentz,
    SphereTable,
    TabulatedEpsilon,
    ThermalState,
    TorqueLaw,
    Vacuum,
    bose_occupation,
    disk_interior_frequency,
    langevin_step,
    mode_flux,
    tabulate_torque_law,
)
from spinrad import bessel, cli
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
            fn = lambda zz: bessel.bessel_j(m, zz)
            same(fn(z), forced(fn, z, [1.5 + 0j]))
        assert bessel.bessel_j(1, np.empty(0, dtype=complex)).shape == (0,)

    @staticmethod
    def old_j_deriv(m, z):
        k = abs(m)
        zero = z == 0
        zs = np.where(zero, 1.0, z)
        d = bessel.bessel_j(k - 1, zs) - (k / zs) * bessel.bessel_j(k, zs)
        d[zero] = 0.5 if k == 1 else 0.0
        return (-1) ** (-m) * d if m < 0 else d

    @staticmethod
    def old_h_deriv(kind, m, z):
        za = np.asarray(z, dtype=complex)
        k = abs(m)
        d = bessel.hankel(kind, k - 1, za) - (k / za) * bessel.hankel(kind, k, za)
        return (-1) ** (-m) * d if m < 0 else d

    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 5])
    def test_disk_matching_against_six_call_expression(self, m):
        model, R, Omega = Drude(1.0), 0.1, 1.0
        w = np.append(W, [float(m)] if m > 0 else [])  # a corotation node where there is one
        wt, J, Jp, den = _disk_matching(model, R, Omega, w, m)
        zj, zh = wt * R, w * R
        same(J, bessel.bessel_j(m, zj))
        same(Jp, self.old_j_deriv(m, zj))
        same(den, wt * self.old_j_deriv(m, zj) * bessel.hankel(1, m, zh)
             - bessel.bessel_j(m, zj) * w * self.old_h_deriv(1, m, zh))

    @pytest.mark.parametrize("m", [-2, 0, 3])
    def test_derivative_pairs_against_recurrence(self, m):
        z = np.array([0.0, 0.4, 2.0 + 0.5j, 7.0 - 1.0j, 15.0])
        same(bessel.bessel_j_and_deriv(m, z)[1], self.old_j_deriv(m, z))
        same(bessel.hankel_and_deriv(2, m, z[1:].real)[1], self.old_h_deriv(2, m, z[1:].real))


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
        cli._write_csv(tmp_path / "new.csv", meta, columns, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_rows(self, tmp_path):
        self.old_write(tmp_path / "old.csv", {}, ["a", "b"], [])
        cli._write_csv(tmp_path / "new.csv", {}, ["a", "b"], [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
