"""Dielectric models: Hermitian symmetry, causality sign, occupation identities."""

import math

import numpy as np
import pytest

from spinrad import (
    BoseDivergenceError,
    ConstantEpsilon,
    DomainError,
    Drude,
    Lorentz,
    ResonanceError,
    TabulatedEpsilon,
    TableFormatError,
    ThermalState,
    Vacuum,
    bose_occupation,
    sphere_polarizability,
)

LOSSY_MODELS = [
    Drude(sigma=2.5),
    Lorentz(eps_inf=1.0, omega_p=3.0, omega_0=2.0, gamma=0.4),
    ConstantEpsilon(4.0, 0.7),
]

OMEGA_GRID = np.logspace(-6, 3, 40)


class TestEpsilon:
    def test_vacuum(self):
        v = Vacuum()
        for w in (-3.0, 0.0, 1e-4, 7.0):
            assert v.epsilon(w) == 1.0 + 0.0j
        assert v.lossless

    def test_drude_printed_form(self):
        m = Drude(sigma=0.5)
        w = 2.0
        assert m.epsilon(w) == pytest.approx(1.0 + 4j * math.pi * 0.5 / w, rel=1e-14)

    def test_drude_zero_raises(self):
        with pytest.raises(DomainError):
            Drude(sigma=1.0).epsilon(0.0)

    @pytest.mark.parametrize("model", LOSSY_MODELS)
    def test_hermitian_symmetry_exact(self, model):
        for w in OMEGA_GRID:
            assert model.epsilon(-w) == model.epsilon(w).conjugate()

    @pytest.mark.parametrize("model", LOSSY_MODELS)
    def test_causality_sign(self, model):
        for w in OMEGA_GRID:
            assert model.epsilon(w).imag > 0
            assert model.epsilon(-w).imag < 0

    def test_lorentz_static_value(self):
        m = Lorentz(eps_inf=2.0, omega_p=3.0, omega_0=1.5, gamma=0.0)
        assert m.epsilon(0.0) == pytest.approx(2.0 + 9.0 / 2.25)
        assert m.lossless

    def test_constant_reflection(self):
        m = ConstantEpsilon(3.0, 0.5)
        assert m.epsilon(2.0) == 3.0 + 0.5j
        assert m.epsilon(-2.0) == 3.0 - 0.5j
        with pytest.raises(DomainError):
            ConstantEpsilon(3.0, -0.5)


class TestTabulated:
    def make(self):
        w = np.array([0.1, 1.0, 10.0])
        return TabulatedEpsilon(w, [4.0, 3.0, 2.0], [0.4, 0.2, 0.1])

    def test_interpolates_at_nodes(self):
        m = self.make()
        assert m.epsilon(1.0) == pytest.approx(3.0 + 0.2j)

    def test_im_log_linear_positive(self):
        m = self.make()
        # Im interpolates linearly against log(omega): midpoint in log space
        w_mid = math.sqrt(0.1 * 1.0)
        assert m.epsilon(w_mid).imag == pytest.approx(0.3, rel=1e-12)
        for w in np.geomspace(0.1, 10.0, 31):
            assert m.epsilon(w).imag > 0

    def test_out_of_range(self):
        m = self.make()
        with pytest.raises(DomainError):
            m.epsilon(20.0)

    def test_nonmonotone_rejected(self):
        with pytest.raises(TableFormatError):
            TabulatedEpsilon([1.0, 0.5, 2.0], [1, 1, 1], [0.1, 0.1, 0.1])

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "eps.csv"
        p.write_text("omega,eps_re,eps_im\n0.5,3.0,0.2\n1.5,2.5,0.1\n")
        m = TabulatedEpsilon.from_csv(p)
        assert m.epsilon(0.5) == pytest.approx(3.0 + 0.2j)

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "eps.csv"
        p.write_text("w,re,im\n0.5,3.0,0.2\n")
        with pytest.raises(TableFormatError):
            TabulatedEpsilon.from_csv(p)

    @pytest.mark.parametrize("row", ["1.0,2.5,nan", "1.0,nan,0.1", "inf,2.5,0.1"],
                             ids=["eps_im-nan", "eps_re-nan", "omega-inf"])
    def test_csv_non_finite_cell_names_its_row(self, tmp_path, row):
        p = tmp_path / "eps.csv"
        p.write_text(f"omega,eps_re,eps_im\n0.5,3.0,0.2\n{row}\n2.0,2.0,0.1\n")
        with pytest.raises(TableFormatError, match=r"^row 3: .*finite") as exc:
            TabulatedEpsilon.from_csv(p)
        assert exc.value.row == 3

    def test_csv_nonmonotone_row_number(self, tmp_path):
        p = tmp_path / "eps.csv"
        p.write_text("omega,eps_re,eps_im\n1.0,3.0,0.2\n0.5,2.5,0.1\n")
        with pytest.raises(TableFormatError):
            TabulatedEpsilon.from_csv(p)

    @pytest.mark.parametrize("text, line", [
        ("1.0,3.0,0.2\n0.5,2.5,0.1\n", 3),
        ("0.5,3.0,0.2\n\n1.5,2.5,0.1\n1.0,2.5,0.1\n", 5),
    ], ids=["adjacent", "after-blank-line"])
    def test_csv_nonmonotone_names_its_file_line(self, tmp_path, text, line):
        # blank lines are skipped but still counted
        p = tmp_path / "eps.csv"
        p.write_text("omega,eps_re,eps_im\n" + text)
        with pytest.raises(TableFormatError, match=rf"^row {line}: non-monotone") as exc:
            TabulatedEpsilon.from_csv(p)
        assert exc.value.row == line


class TestBoseOccupation:
    def test_zero_temperature_step(self):
        assert bose_occupation(1.0, 0.0) == 0.0
        assert bose_occupation(-1.0, 0.0) == -1.0
        assert bose_occupation(1e-8, 0.0) == 0.0

    def test_zero_zero_raises(self):
        with pytest.raises(DomainError):
            bose_occupation(0.0, 0.0)

    def test_divergence_flagged(self):
        with pytest.raises(BoseDivergenceError):
            bose_occupation(0.0, 1.0)

    def test_equal_omega_and_temperature(self):
        # frozen oracle 1/(e - 1)
        assert bose_occupation(2.0, 2.0) == pytest.approx(0.5819767068693265, rel=1e-13)

    @pytest.mark.parametrize("T", [0.3, 1.0, 42.0])
    @pytest.mark.parametrize("w", [1e-4, 0.1, 1.0, 30.0])
    def test_reflection_identity(self, T, w):
        assert bose_occupation(-w, T) + bose_occupation(w, T) == pytest.approx(-1.0, abs=1e-12)

    def test_extreme_argument_underflow(self):
        assert bose_occupation(1e6, 1.0) == 0.0


class TestPolarizability:
    def test_vacuum_is_zero(self):
        assert sphere_polarizability(Vacuum(), 1.0, 3.0) == 0.0

    def test_constant_two(self):
        # (2-1)/(2+2) = 1/4, purely real
        a = sphere_polarizability(ConstantEpsilon(2.0), 2.0, 1.0)
        assert a == pytest.approx(8.0 / 4.0)
        assert a.imag == 0.0

    def test_drude_small_omega_imag(self):
        sigma, R = 50.0, 0.3
        w = 1e-3
        a = sphere_polarizability(Drude(sigma), R, w)
        assert a.imag == pytest.approx(3 * w * R**3 / (4 * math.pi * sigma), rel=1e-5)

    def test_im_sign_tracks_omega(self):
        for model in LOSSY_MODELS:
            for w in (0.1, 3.0):
                assert sphere_polarizability(model, 1.0, w).imag > 0
                assert sphere_polarizability(model, 1.0, -w).imag < 0

    def test_lossless_real(self):
        m = Lorentz(eps_inf=1.0, omega_p=2.0, omega_0=5.0, gamma=0.0)
        for w in (0.1, 1.0, 3.0):
            assert sphere_polarizability(m, 1.0, w).imag == 0.0

    def test_plasmon_pole(self):
        # eps = -2 exactly
        with pytest.raises(ResonanceError):
            sphere_polarizability(ConstantEpsilon(-2.0, 0.0), 1.0, 1.0)


class TestThermalState:
    def test_validation(self):
        with pytest.raises(DomainError):
            ThermalState(T_object=-1.0)
        with pytest.raises(DomainError):
            ThermalState(Omega=-0.1)

    def test_zero_temperature_flag(self):
        assert ThermalState(Omega=1.0).zero_temperature
        assert not ThermalState(T_object=0.5, Omega=1.0).zero_temperature
