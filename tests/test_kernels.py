"""Array-valued spectral kernels: an array call equals the stacked scalar calls.

The quadrature hands whole panels of nodes to the integrand, so every kernel
from eps(omega) up to mode_flux takes arrays; scalar calls (used throughout
the rest of the suite) go through the same arithmetic and must agree bit for
bit with the matching entry of an array call.
"""

import numpy as np
import pytest

from spinrad import (
    BoseDivergenceError,
    ConstantEpsilon,
    CylinderTable,
    DiskTable,
    DomainError,
    Drude,
    Lorentz,
    SphereTable,
    TabulatedEpsilon,
    ThermalState,
    UserTable,
    Vacuum,
    bose_occupation,
    cylinder_flux_block,
    disk_flux,
    mode_flux,
    sphere_flux_dipole,
    tabulate_torque_law,
)
from spinrad import bessel
from spinrad.scattering import _cyl_response, _dipole_alpha

from reference_routes import (
    ExactCylinderTable,
    ExactSphereTable,
    exact_cylinder_flux_block,
    exact_sphere_flux_dipole,
)


def stacked(fn, xs):
    return np.array([fn(x) for x in xs])


def assert_same(fn, xs):
    xs = np.asarray(xs, dtype=float)
    got = fn(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    np.testing.assert_array_equal(got, stacked(fn, xs.tolist()))
    assert np.ndim(fn(float(xs[0]))) == 0


MODELS_WITH_ZERO = [
    Vacuum(),
    Lorentz(eps_inf=1.5, omega_p=2.0, omega_0=1.3, gamma=0.2),
    ConstantEpsilon(3.0, 0.4),
]
TABULATED = TabulatedEpsilon([0.1, 1.0, 4.0], [4.0, 3.0, 2.0], [0.4, 0.2, 0.1])
FREQS = [-3.5, -1.0, -0.25, 0.0, 0.25, 1.0, 3.5]


class TestEpsilon:
    @pytest.mark.parametrize("model", MODELS_WITH_ZERO, ids=type)
    def test_array_equals_scalars_across_zero(self, model):
        assert_same(model.epsilon, FREQS)

    @pytest.mark.parametrize("model", [Drude(2.0), TABULATED], ids=type)
    def test_array_equals_scalars_off_zero(self, model):
        assert_same(model.epsilon, [w for w in FREQS if w != 0.0])

    @pytest.mark.parametrize("model", [Drude(2.0), TABULATED], ids=type)
    def test_zero_frequency_raises_inside_an_array(self, model):
        with pytest.raises(DomainError):
            model.epsilon(0.0)
        with pytest.raises(DomainError):
            model.epsilon(np.array([0.5, 0.0, -0.5]))

    def test_hermitian_reflection_is_a_mask(self):
        w = np.array([0.3, 1.7, 2.9])
        eps = Drude(0.7).epsilon(np.concatenate([w, -w]))
        np.testing.assert_array_equal(eps[3:], eps[:3].conj())


class TestBose:
    @pytest.mark.parametrize("T", [0.0, 0.4])
    def test_array_equals_scalars(self, T):
        assert_same(lambda w: bose_occupation(w, T), [-500.0, -2.0, -1e-3, 1e-3, 0.7, 300.0, 500.0])

    def test_zero_in_an_array_raises(self):
        with pytest.raises(DomainError):
            bose_occupation(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(BoseDivergenceError):
            bose_occupation(np.array([1.0, 0.0]), 0.5)


class TestFlux:
    OMEGA = 1.0

    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 3])
    def test_disk(self, m):
        ws = [0.05, 0.4, self.OMEGA * m if m > 0 else 0.9, 1.7, 3.2]
        assert_same(lambda w: disk_flux(Drude(1.0), 0.2, self.OMEGA, w, m), ws)
        table = DiskTable(ConstantEpsilon(2.0, 0.3), 0.5)
        assert_same(lambda w: table.flux(w, m, None, "scalar", self.OMEGA), ws)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_sphere(self, m, exact):
        # w = Omega*m hits the Drude alpha -> R^3 limit at m = 1; exact: the test oracle
        ws = [0.1, 0.5, self.OMEGA, 2.5]
        flux = exact_sphere_flux_dipole if exact else sphere_flux_dipole
        assert_same(lambda w: flux(Drude(10.0), 0.01, self.OMEGA, w, m), ws)
        table = (ExactSphereTable if exact else SphereTable)(Lorentz(1.0, 1.0, 2.0, 0.3), 0.05)
        assert_same(lambda w: table.flux(w, m, 1, "E", self.OMEGA), ws)

    def test_dipole_alpha_limit_at_corotation(self):
        alpha = _dipole_alpha(Drude(10.0), 0.1, np.array([-0.5, 0.0, 0.5]))
        assert alpha[1] == pytest.approx(0.1**3)
        assert_same(lambda w: _dipole_alpha(Drude(10.0), 0.1, w), [-0.5, 0.0, 0.5])

    @pytest.mark.parametrize("model", [Drude(1e3), ConstantEpsilon(3.0, 0.5)], ids=type)
    def test_cylinder(self, model):
        assert_same(lambda w: _cyl_response(model, w), [-0.5, 0.0, 0.5])
        for kz_frac in (-0.7, 0.0, 0.9):
            for flux in (cylinder_flux_block, exact_cylinder_flux_block):
                assert_same(lambda w: flux(model, 1e-3, self.OMEGA, w, kz_frac * w),
                            [0.2, self.OMEGA, 1.6])

    @pytest.mark.parametrize("exact", [False, True])
    def test_cylinder_table(self, exact):
        table = (ExactCylinderTable if exact else CylinderTable)(Drude(1e3), 1e-3, 1.5)
        for m in (-1, 1):
            assert_same(lambda w: table.flux(w, m, None, "block", self.OMEGA),
                        [0.2, self.OMEGA, 1.6])

    def test_cylinder_broadcasts_kz_against_omega(self):
        w = np.array([0.3, 0.8])
        kz = np.array([[-0.2], [0.1]]) * w
        block = cylinder_flux_block(Drude(1e3), 1e-3, 1.0, w, kz)
        assert block.shape == (2, 2)
        assert block[1, 0] == cylinder_flux_block(Drude(1e3), 1e-3, 1.0, 0.3, 0.1 * 0.3)

    def test_user_table(self):
        om = np.linspace(0.1, 2.0, 7)
        S = (1.0 + 0.05 * om) * np.exp(0.3j * om)
        table = UserTable({(1, None, "scalar"): (om, S)})
        assert_same(lambda w: table.flux(w, 1, None, "scalar", 1.0), [0.1, 0.55, 1.3, 2.0])
        with pytest.raises(DomainError, match="2.5"):
            table.flux(np.array([1.0, 2.5]), 1, None, "scalar", 1.0)


class TestCylinderTable:
    def test_flux_equals_gauss_legendre_kz_sum_of_block(self):
        # the truncated block is a polynomial of degree 2 in k_z, so the
        # 8-point rule over [-w, w] integrates it exactly
        model, R, L, Omega = Drude(1e3), 1e-3, 1.5, 1.0
        table = CylinderTable(model, R, L)
        w = np.linspace(0.05, 2.5, 9)
        x, g = np.polynomial.legendre.leggauss(8)
        for m in (-1, 1):
            block = cylinder_flux_block(model, R, Omega, w, x[:, None] * w, m=m)
            ref = L / (2 * np.pi) * np.sum(g[:, None] * block, axis=0) * w
            np.testing.assert_allclose(table.flux(w, m, None, "block", Omega), ref, rtol=1e-12)

    def test_channels_mirror_the_sphere(self):
        table = CylinderTable(Drude(1e3), 1e-3, 1.0)
        assert table.channels(5) == [(-1, None, "block"), (1, None, "block")]
        assert table.channels(0) == []
        with pytest.raises(DomainError):
            CylinderTable(Drude(1e3), 1e-3, 0.0)


class TestModeFlux:
    @pytest.mark.parametrize(
        "state",
        [ThermalState(Omega=1.0), ThermalState(T_object=0.5, T_env=0.2, Omega=1.0)],
        ids=["T0", "thermal"],
    )
    @pytest.mark.parametrize("m", [-1, 1, 2])
    def test_array_equals_scalars_through_corotation(self, state, m):
        table = DiskTable(Drude(1.0), 0.1)
        ws = [0.3, 0.999, 1.0, 1.5, 2.0, 2.7]  # includes omega = Omega*m for m = 1, 2
        assert_same(lambda w: mode_flux(table, state, w, m), ws)

    def test_corotation_limit_is_finite(self):
        state = ThermalState(T_object=0.5, Omega=1.0)
        N = mode_flux(SphereTable(Drude(10.0), 0.01), state, np.array([0.9, 1.0]), 1)
        assert np.all(np.isfinite(N))


class TestBesselGuards:
    def test_order_cap(self):
        with pytest.raises(DomainError, match="201"):
            bessel.bessel_j_and_deriv(201, np.array([1.0, 2.0]))

    def test_argument_cap_names_first_offender(self):
        with pytest.raises(DomainError, match="20000"):
            bessel.hankel(1, 0, np.array([1.0, 2e4, 3e4]))

    def test_overflow_names_first_offender(self):
        with pytest.raises(DomainError, match="0.01"):
            bessel.hankel(1, 200, np.array([5.0, 0.01, 0.02]))

    def test_zero_argument_in_array(self):
        with pytest.raises(DomainError):
            bessel.hankel(1, 0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("m", [-3, 0, 1, 4])
    def test_array_equals_scalars(self, m):
        zs = np.array([0.0, 0.3, 2.0 + 0.5j, 7.0 - 1.0j, 15.0])
        for fn in (lambda m, z: bessel.bessel_j_and_deriv(m, z)[0],
                   lambda m, z: bessel.bessel_j_and_deriv(m, z)[1]):
            got = fn(m, zs)
            np.testing.assert_array_equal(got, np.array([fn(m, z) for z in zs.tolist()]))
        for fn in (lambda m, z: bessel.hankel(1, m, z),
                   lambda m, z: bessel.hankel_and_deriv(2, m, z)[1]):
            got = fn(m, zs[1:])
            np.testing.assert_array_equal(got, np.array([fn(m, z) for z in zs[1:].tolist()]))

    # per-node orders: negative, zero and positive, at real, zero and complex arguments
    ORDERS = np.array([0, -3, 1, 4, -1, 1, -2, 0, 2, 3, -4, 0])
    ARGS = np.array([0.0, 0.3, 2.0 + 0.5j, 7.0 - 1.0j, 15.0, 0.0, 1.2, -2.5, 3.0j, 0.3,
                     0.0, 5.5 + 0j])

    @pytest.mark.parametrize("fn", [
        lambda m, z: bessel.bessel_j_and_deriv(m, z)[0],
        lambda m, z: bessel.bessel_j_and_deriv(m, z)[1],
    ], ids=["J-pair", "J'"])
    def test_per_node_orders_equal_scalar_order_calls(self, fn):
        got = fn(self.ORDERS, self.ARGS)
        ref = [fn(m, z) for m, z in zip(self.ORDERS.tolist(), self.ARGS.tolist())]
        assert got.tobytes() == np.array(ref).tobytes()
        for m in set(self.ORDERS.tolist()):  # and the entries of one-order array calls
            at = self.ORDERS == m
            assert got[at].tobytes() == fn(m, self.ARGS[at]).tobytes()

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("part", [0, 1])
    def test_per_node_hankel_orders_equal_scalar_order_calls(self, kind, part):
        live = self.ARGS != 0
        ms, zs = self.ORDERS[live], self.ARGS[live]
        got = bessel.hankel_and_deriv(kind, ms, zs)[part]
        ref = [bessel.hankel_and_deriv(kind, m, z)[part] for m, z in zip(ms.tolist(), zs.tolist())]
        assert got.tobytes() == np.array(ref).tobytes()
        if part == 0:
            assert bessel.hankel(kind, ms, zs).tobytes() == got.tobytes()

    def test_per_node_order_guards_name_the_first_offender(self):
        with pytest.raises(DomainError, match="201"):
            bessel.bessel_j_and_deriv(np.array([1, 201, -300]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="integer, got 1.5"):
            bessel.bessel_j_and_deriv(np.array([1.0, 1.5, 2.5]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="do not match"):
            bessel.bessel_j_and_deriv(np.array([1, 2]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match=r"order 200, argument \(0.01"):
            bessel.hankel(1, np.array([0, 200, 200]), np.array([5.0, 0.01, 0.02]))


class TestTorqueLawMemo:
    def test_each_rate_evaluated_once_and_probes_become_grid_nodes(self):
        calls = []

        def moments(W):
            calls.append(W)
            return (W**5 + 0.3 * W**3, 2.0 * W**5 / (1.0 + W))

        rtol = 1e-6
        law = tabulate_torque_law(moments, (0.0, 2.0), rtol=rtol)
        assert len(calls) == len(set(calls))
        # 8 probes of the last round on top of a nested grid of 16 * 2^k + 1
        # nodes: every earlier probe was reused as a node, never recomputed
        levels = (len(calls) - 8 - 1) // 16
        assert len(calls) == 16 * levels + 9 and levels & (levels - 1) == 0 and levels > 1

        # the law meets rtol at every off-grid rate it was checked against
        # (the geometric midpoints probed), and reproduces its nodes
        W = np.array(calls)
        drift, diff = np.array([moments(w) for w in W]).T
        assert np.max(np.abs(law.drift(W) / drift - 1.0)) < rtol
        assert np.max(np.abs(law.diffusion(W) / diff - 1.0)) < rtol
