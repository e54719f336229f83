"""Scattering matrices: unitarity, superradiance window, limits, channel tables."""

import math

import numpy as np
import pytest

from spinrad import (
    ConstantEpsilon,
    DomainError,
    Drude,
    Lorentz,
    TableFormatError,
    Vacuum,
    cylinder_flux_block,
    cylinder_smatrix_block,
    disk_interior_frequency,
    disk_smatrix,
    disk_smatrix_smallvel,
    load_channel_table,
    sphere_flux_dipole,
    sphere_smatrix_dipole,
)
from spinrad.scattering import SmallVelocityWarning

LOSSLESS = [Vacuum(), ConstantEpsilon(4.0), Lorentz(1.0, 2.0, 5.0, 0.0)]
LOSSY = [Drude(1.0), ConstantEpsilon(4.0, 0.8), Lorentz(1.0, 2.0, 5.0, 0.3)]


class TestInteriorFrequency:
    def test_vacuum_passthrough(self):
        wt = disk_interior_frequency(Vacuum(), 0.0, 1.7, 3)
        assert wt == pytest.approx(1.7)

    def test_static_dielectric(self):
        wt = disk_interior_frequency(ConstantEpsilon(4.0), 0.0, 1.7, 2)
        assert wt == pytest.approx(2.0 * 1.7)

    def test_im_sign_tracks_comoving_frequency(self):
        model = Drude(0.7)
        # superradiant: 0 < omega < Omega*m  =>  Im wt < 0
        assert disk_interior_frequency(model, 1.0, 0.4, 1).imag < 0
        # above the window the comoving frequency is positive
        assert disk_interior_frequency(model, 1.0, 1.6, 1).imag > 0

    def test_comoving_zero_is_regular(self):
        wt = disk_interior_frequency(Drude(0.7), 1.0, 1.0, 1)
        assert wt == pytest.approx(1.0)


class TestDiskSMatrix:
    @pytest.mark.parametrize("model", LOSSLESS)
    def test_unitary_for_lossless(self, model):
        for m in (0, 1, 2, 5):
            for w in (0.08, 0.7, 2.9):
                S = disk_smatrix(model, 0.6, 0.9, w, m)
                assert abs(abs(S) - 1.0) < 1e-10

    def test_vacuum_no_scattering(self):
        assert disk_smatrix(Vacuum(), 0.5, 0.0, 1.3, 2) == pytest.approx(1.0 + 0.0j)

    @pytest.mark.parametrize("model", LOSSY)
    def test_subunitary_at_rest(self, model):
        for w in (0.3, 1.1, 4.0):
            assert abs(disk_smatrix(model, 0.6, 0.0, w, 1)) < 1.0

    @pytest.mark.parametrize("model", LOSSY)
    def test_superradiant_window(self, model):
        Omega, R = 1.0, 0.4
        grid = np.linspace(0.05, 3.0, 41)
        for m in (1, 2, 3):
            for w in grid:
                if abs(w - Omega * m) < 1e-6 * Omega:
                    continue
                S = disk_smatrix(model, R, Omega, w, m)
                gain = abs(S) ** 2 - 1.0
                assert math.copysign(1.0, gain) == math.copysign(1.0, Omega * m - w)

    def test_flux_zero_crossing_at_corotation(self):
        # at omega = Omega*m the interior frequency is real: the flux factor
        # vanishes identically, not merely to tolerance
        for model in LOSSY:
            from spinrad import disk_flux

            assert disk_flux(model, 0.3, 1.0, 1.0, 1) == 0.0
            assert disk_flux(model, 0.3, 0.5, 1.0, 2) == 0.0

    def test_static_reciprocity(self):
        model = Drude(0.8)
        for m in (1, 2, 4):
            for w in (0.2, 1.0, 3.3):
                assert disk_smatrix(model, 0.5, 0.0, w, m) == disk_smatrix(
                    model, 0.5, 0.0, w, -m
                )

    def test_needs_positive_omega(self):
        with pytest.raises(DomainError):
            disk_smatrix(Vacuum(), 0.5, 0.0, -1.0, 0)


class TestDiskSmallVelocity:
    def test_zero_at_corotation(self):
        assert disk_smatrix_smallvel(Drude(1.0), 0.01, 1.0, 1.0) == 0.0

    def test_positive_in_window_negative_above(self):
        model = Drude(1.0)
        assert disk_smatrix_smallvel(model, 0.01, 1.0, 0.5) > 0
        assert disk_smatrix_smallvel(model, 0.01, 1.0, 1.5) < 0

    def test_against_exact_bessel_matrix(self):
        # 5% agreement across the superradiant window at Omega*R/c = 0.01
        model, Omega = Drude(1.0), 1.0
        R = 0.01 / Omega
        for w in np.linspace(0.05, 0.95, 19) * Omega:
            exact = abs(disk_smatrix(model, R, Omega, w, 1)) ** 2 - 1.0
            approx = disk_smatrix_smallvel(model, R, Omega, w)
            assert abs(exact - approx) / abs(approx) < 0.05

    def test_warning_past_guard(self):
        with pytest.warns(SmallVelocityWarning):
            disk_smatrix_smallvel(Drude(1.0), 0.5, 1.0, 0.7)


class TestSphereDipole:
    def test_vacuum_identity(self):
        assert sphere_smatrix_dipole(Vacuum(), 0.1, 1.0, 0.5, 1) == pytest.approx(1.0 + 0j)

    def test_lossless_flux_exactly_zero(self):
        assert sphere_flux_dipole(ConstantEpsilon(4.0), 0.1, 1.0, 0.5, 1) == 0.0

    def test_superradiant_gain_matches_imalpha(self):
        model, R, Omega, w = Drude(3.0), 0.05, 1.0, 0.4
        from spinrad import sphere_polarizability

        alpha = sphere_polarizability(model, R, w - Omega)
        gain = -sphere_flux_dipole(model, R, Omega, w, 1)
        assert gain == pytest.approx((8 * w**3 / 3) * abs(alpha.imag), rel=1e-12)
        assert gain > 0

    def test_m_restricted(self):
        with pytest.raises(DomainError):
            sphere_smatrix_dipole(Vacuum(), 0.1, 1.0, 0.5, 2)

    def test_exact_flux_close_to_truncated(self):
        model, R, Omega, w = Drude(3.0), 0.01, 1.0, 0.4
        tr = sphere_flux_dipole(model, R, Omega, w, 1)
        ex = sphere_flux_dipole(model, R, Omega, w, 1, exact=True)
        assert ex == pytest.approx(tr, rel=1e-4)


class TestCylinderBlock:
    def test_vacuum_identity_block(self):
        blk = cylinder_smatrix_block(Vacuum(), 0.01, 1.0, 0.5, 0.2)
        assert np.allclose(blk, np.eye(2))

    def test_kz_zero_structure(self):
        blk = cylinder_smatrix_block(Drude(1.0), 0.01, 1.0, 0.5, 0.0)
        assert blk[1, 1] == pytest.approx(1.0 + 0j)  # EE element
        assert blk[0, 1] == 0.0 and blk[1, 0] == 0.0  # no mixing

    def test_off_diagonal_symmetry(self):
        blk = cylinder_smatrix_block(Drude(1.0), 0.01, 1.0, 0.5, 0.3)
        assert blk[0, 1] == blk[1, 0]

    def test_evanescent_rejected(self):
        with pytest.raises(DomainError):
            cylinder_smatrix_block(Drude(1.0), 0.01, 1.0, 0.5, 0.6)

    def test_truncated_flux_matches_kz_quadrature_of_paperform(self):
        # the truncated polarization-summed flux is pi*Im r*(w^2+kz^2)*R^2
        model, R, Omega, w = Drude(1.0), 0.01, 1.0, 0.4
        eps = model.epsilon(w - Omega)
        r = (eps - 1) / (eps + 1)
        for kz in (0.0, 0.2, 0.399):
            got = cylinder_flux_block(model, R, Omega, w, kz)
            assert got == pytest.approx(np.pi * r.imag * (w**2 + kz**2) * R**2, rel=1e-12)

    def test_exact_block_flux_near_truncated_for_thin(self):
        model, R, Omega, w, kz = Drude(1.0), 1e-3, 1.0, 0.4, 0.2
        tr = cylinder_flux_block(model, R, Omega, w, kz)
        ex = cylinder_flux_block(model, R, Omega, w, kz, exact=True)
        assert ex == pytest.approx(tr, rel=1e-4)


GOOD_CSV = """omega,m,extra,pol,ReS,ImS
0.5,1,,scalar,0.9,0.1
1.0,1,,scalar,0.8,0.2
1.5,1,,scalar,0.7,0.2
0.5,2,,scalar,0.95,0.05
1.0,2,,scalar,0.9,0.1
"""


class TestUserTable:
    def test_load_and_interpolate(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text(GOOD_CSV)
        t = load_channel_table(p)
        assert t.m_values(5) == [1, 2]
        S = t.smatrix(0.75, 1, None, "scalar", 0.0)
        assert S == pytest.approx(complex(0.85, 0.15))
        assert t.omega_domain(1, None, "scalar") == (0.5, 1.5)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("w,m,x,p,r,i\n1,1,,scalar,1,0\n")
        with pytest.raises(TableFormatError):
            load_channel_table(p)

    def test_nonmonotone_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("omega,m,extra,pol,ReS,ImS\n1.0,1,,scalar,1,0\n0.5,1,,scalar,1,0\n")
        with pytest.raises(TableFormatError) as exc:
            load_channel_table(p)
        assert exc.value.row == 3

    def test_evanescent_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("omega,m,extra,pol,ReS,ImS\n0.5,1,0.8,E,1,0\n")
        with pytest.raises(TableFormatError) as exc:
            load_channel_table(p)
        assert exc.value.row == 2

    def test_bad_polarization(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("omega,m,extra,pol,ReS,ImS\n0.5,1,,TEM,1,0\n")
        with pytest.raises(TableFormatError):
            load_channel_table(p)

    def test_out_of_span_raises(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text(GOOD_CSV)
        t = load_channel_table(p)
        with pytest.raises(DomainError):
            t.smatrix(2.0, 1, None, "scalar", 0.0)
