"""Spherical harmonics, quadrature, and the shift-labeled eigenfunctions."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from wracah import (
    InvalidArgumentError,
    QuadratureGrid,
    SphericalPoint,
    UnsupportedLimitError,
    spherical_harmonic,
    verify_sphere,
    y_r_eigenfunction,
)
import wracah.sphere as sphere
from wracah.sphere import harmonic_grid_values, y_r_grid_member, y_r_grid_values

angles = st.tuples(
    st.floats(min_value=0.05, max_value=math.pi - 0.05),
    st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
)


class TestSphericalHarmonics:
    def test_constant_harmonic(self):
        val = spherical_harmonic(0, 0, SphericalPoint(1.234, 2.345))
        assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-15)

    def test_dipole_harmonics(self):
        theta, phi = 0.7, 1.9
        p = SphericalPoint(theta, phi)
        assert spherical_harmonic(1, 0, p) == pytest.approx(
            math.sqrt(3 / (4 * math.pi)) * math.cos(theta), abs=1e-14
        )
        want = -math.sqrt(3 / (8 * math.pi)) * math.sin(theta) * cmath.exp(1j * phi)
        assert spherical_harmonic(1, 1, p) == pytest.approx(want, abs=1e-14)

    @given(angles, st.integers(min_value=0, max_value=10))
    @settings(max_examples=20)
    def test_against_scipy(self, angle, l):
        theta, phi = angle
        p = SphericalPoint(theta, phi)
        for m in range(-l, l + 1):
            want = complex(sph_harm_y(l, m, theta, phi))
            assert spherical_harmonic(l, m, p) == pytest.approx(want, abs=1e-12)

    @given(angles, st.integers(min_value=0, max_value=8))
    @settings(max_examples=15)
    def test_negative_m_reflection(self, angle, l):
        theta, phi = angle
        p = SphericalPoint(theta, phi)
        for m in range(0, l + 1):
            plus = spherical_harmonic(l, m, p)
            minus = spherical_harmonic(l, -m, p)
            assert minus == pytest.approx((-1) ** m * plus.conjugate(), abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            spherical_harmonic(1, 2, SphericalPoint(0.5, 0.5))
        with pytest.raises(InvalidArgumentError):
            spherical_harmonic(-1, 0, SphericalPoint(0.5, 0.5))
        with pytest.raises(InvalidArgumentError):
            SphericalPoint(-0.1, 0.0)
        with pytest.raises(InvalidArgumentError):
            SphericalPoint(0.5, 7.0)


class TestQuadrature:
    def test_weights_integrate_constants(self):
        grid = QuadratureGrid(6, 7)
        ones = np.ones((6, 7), dtype=complex)
        assert complex(grid.integrate(ones)) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_unit_norm_quadrupole(self):
        grid = QuadratureGrid(16, 9)
        vals = harmonic_grid_values(2, grid)[(2, 1)]
        norm = grid.integrate(np.conj(vals) * vals)
        assert complex(norm) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormality_matrix(self):
        l_max = 5
        grid = QuadratureGrid(l_max + 1, 2 * l_max + 1)
        table = harmonic_grid_values(l_max, grid)
        keys = sorted(table)
        fam = np.stack([table[key] for key in keys])
        gram = grid.gram(fam)
        assert np.max(np.abs(gram - np.eye(len(keys)))) < 1e-12

    def test_grid_validation(self):
        with pytest.raises(InvalidArgumentError):
            QuadratureGrid(0, 5)


class TestShiftEigenfunctions:
    def test_family_is_orthonormal(self):
        for l, r in [(1, 0.0), (2, 1.0), (3, 2.37), (4, 0.5)]:
            grid = QuadratureGrid(l + 2, 2 * l + 3)
            fam = y_r_grid_values(l, r, grid)
            gram = grid.gram(fam)
            assert np.max(np.abs(gram - np.eye(2 * l + 1))) < 1e-12

    def test_matches_harmonic_combination(self):
        l, r = 2, 1.0
        p = SphericalPoint(0.9, 4.0)
        dim = 2 * l + 1
        for s in range(dim):
            alpha = -l * r + s
            want = sum(
                cmath.exp(2j * math.pi * alpha * m / dim) * spherical_harmonic(l, m, p)
                for m in range(-l, l + 1)
            ) / math.sqrt(dim)
            assert y_r_eigenfunction(l, s, r, p) == pytest.approx(want, abs=1e-13)

    def test_pole_value_picks_out_m_zero(self):
        """At the pole only m = 0 survives, so |y| = Y_l0(0) / sqrt(2l+1)."""
        p = SphericalPoint(0.0, 0.0)
        got = y_r_eigenfunction(1, 0, 0.0, p)
        want = math.sqrt(3 / (4 * math.pi)) / math.sqrt(3.0)
        assert abs(got) == pytest.approx(want, abs=1e-14)
        assert got.real == pytest.approx(0.28209479177387814, abs=1e-14)

    def test_family_step_relabels(self):
        l = 2
        grid = QuadratureGrid(6, 7)
        a = y_r_grid_values(l, 0.0, grid)
        b = y_r_grid_values(l, 2.0, grid)
        n = 2 * l + 1
        for s in range(n):
            assert np.max(np.abs(b[s] - a[(s + 1) % n])) < 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(UnsupportedLimitError):
            y_r_eigenfunction(0, 0, 1.0, SphericalPoint(0.5, 0.5))

    def test_label_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            y_r_eigenfunction(1, 3, 1.0, SphericalPoint(0.5, 0.5))


class TestOneEvaluator:
    """Points and grids form their harmonics through one degree routine, from one Legendre table."""

    def test_a_point_builds_one_table(self, monkeypatch):
        built = []
        real = sphere._legendre_block

        def spy(l_max, x):
            built.append((l_max, np.shape(x)))
            return real(l_max, x)

        monkeypatch.setattr(sphere, "_legendre_block", spy)
        p = SphericalPoint(0.5, 0.5)
        y_r_eigenfunction(6, 2, 0.37, p)
        assert built == [(6, (1,))]
        built.clear()
        spherical_harmonic(6, -2, p)
        assert built == [(6, (1,))]
        built.clear()
        y_r_grid_values(6, 0.37, QuadratureGrid(7, 13))
        harmonic_grid_values(6, QuadratureGrid(7, 13))
        assert built == [(6, (7,)), (6, (7,))]

    def test_every_harmonic_comes_from_the_degree_routine(self, monkeypatch):
        degrees = []
        real = sphere._degree_harmonics

        def spy(l, block, phis):
            degrees.append(l)
            return real(l, block, phis)

        monkeypatch.setattr(sphere, "_degree_harmonics", spy)
        p = SphericalPoint(0.5, 0.5)
        spherical_harmonic(3, -1, p)
        y_r_eigenfunction(3, 1, 1.0, p)
        y_r_grid_values(3, 1.0, QuadratureGrid(4, 7))
        assert degrees == [3, 3, 3]
        degrees.clear()
        harmonic_grid_values(3, QuadratureGrid(4, 7))
        assert degrees == [0, 1, 2, 3]

    def test_degree_120_point_keeps_its_bits(self):
        value = y_r_eigenfunction(120, 1, 0.37, SphericalPoint(0.5, 0.5))
        assert (value.real.hex(), value.imag.hex()) == ("-0x1.1a168aeb44001p-2", "-0x1.653294996b211p-8")
        value = spherical_harmonic(120, -77, SphericalPoint(2.1, 5.0))
        assert (value.real.hex(), value.imag.hex()) == ("0x1.62deaefd52906p-8", "0x1.1c1380c0443f4p-5")

    def test_grid_family_peaks_below_four_results(self):
        """Only degree l is formed: the family route does not hold every degree below it."""
        grid = QuadratureGrid(100, 200)
        tracemalloc.start()
        try:
            family = y_r_grid_values(40, 0.37, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family.shape == (81, 100, 200)
        assert peak < 4 * family.nbytes, (peak, family.nbytes)

    @pytest.mark.parametrize("l", [2, 7, 33])
    def test_one_member_has_the_bits_of_the_family(self, l):
        """A member on a grid or at a point contracts its own column only, bit for bit as in the whole family."""
        for grid in (QuadratureGrid(3, 5), QuadratureGrid(20, 30)):
            for r in (1.0, 0.37):
                family = y_r_grid_values(l, r, grid)
                for s in range(2 * l + 1):
                    assert y_r_grid_member(l, s, r, grid).tobytes() == family[s].tobytes(), (l, s, r)
        p = SphericalPoint(0.5, 2.5)
        family = sphere._family(l, 0.37, np.array([math.cos(p.theta)]), np.array([p.phi]))  # every member at p
        assert all(y_r_eigenfunction(l, s, 0.37, p) == family[s, 0, 0] for s in range(2 * l + 1))

    def test_one_grid_member_peaks_below_the_family(self):
        """One member of degree 40 on a 100 x 200 grid holds the degree's harmonics, not the other 80 members."""
        grid = QuadratureGrid(100, 200)
        tracemalloc.start()
        try:
            member = y_r_grid_member(40, 3, 0.37, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert member.shape == (100, 200)
        assert peak < 81 * member.nbytes * 1.25, (peak, member.nbytes)  # the 81 harmonics, and little more


def test_full_verification_suite():
    report = verify_sphere(l_max=6, family_l_max=3, rs=(0.0, 1.0))
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]
    assert report.max_residual < 1e-10


@pytest.mark.parametrize("r", [2.0**54, 2.0**60, -(2.0**60)])
def test_family_shift_steps_r_exactly(r):
    """The shift check moves r by exactly 2: from |r| = 2**54 on, the float r + 2.0 is r again."""
    report = verify_sphere(l_max=2, family_l_max=2, rs=(r,))
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]
    assert {c.name: c.residual for c in report.checks}["family_shift_relabels_cyclically"] == 0.0
