"""Tests for the target-state families and their tabulated reference values."""
import numpy as np
import pytest

from sepnet import (
    DensityMatrix,
    FamilySpec,
    bell_ansatz_state,
    flip_operator,
    ghz,
    horodecki_3x3,
    is_npt,
    isotropic,
    max_entangled,
    min_eigenvalue,
    noisy_mix,
    partial_transpose,
    random_density_matrix,
    random_two_qubit,
    reference_distance,
    trace_distance,
    w_state,
    werner,
)


class TestIsotropic:
    def test_bell_limit(self):
        rho = isotropic(2, 1.0)
        psi = max_entangled(2)
        assert np.allclose(rho.matrix, np.outer(psi, psi.conj()))

    def test_maximally_mixed_limit(self):
        rho = isotropic(3, 0.0)
        assert np.allclose(rho.matrix, np.eye(9) / 9)

    @pytest.mark.parametrize("d,q", [(2, 0.7), (3, 0.7), (3, 0.25), (4, 0.9)])
    def test_partial_transpose_spectrum(self, d, q):
        # the PT of an isotropic state is an affine combination of I and the
        # flip operator, so its spectrum is exactly two values:
        #   (1-q)/d^2 + q/d   with multiplicity d(d+1)/2   (symmetric sector)
        #   (1-q)/d^2 - q/d   with multiplicity d(d-1)/2   (antisymmetric sector)
        rho = isotropic(d, q)
        pt = partial_transpose(rho.matrix, (d, d), (1,))
        eig = np.sort(np.linalg.eigvalsh(pt))
        lo = (1 - q) / d**2 - q / d
        hi = (1 - q) / d**2 + q / d
        n_lo = d * (d - 1) // 2
        expected = np.sort(np.array([lo] * n_lo + [hi] * (d * d - n_lo)))
        assert np.allclose(eig, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_boundary_is_ppt_crossing(self, d):
        qb = 1.0 / (d + 1)
        at = isotropic(d, qb)
        above = isotropic(d, qb + 1e-6)
        assert abs(min_eigenvalue(partial_transpose(at.matrix, (d, d), (1,)))) < 1e-12
        assert is_npt(above.matrix, (d, d))

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError):
            isotropic(1, 0.5)


class TestWerner:
    def test_spectrum(self):
        # weights spread uniformly over the two flip eigenspaces
        d, q = 3, 0.8
        rho = werner(d, q)
        eig = np.sort(np.linalg.eigvalsh(rho.matrix))
        sym = (1 - q) * 2 / (d * (d + 1))
        asym = q * 2 / (d * (d - 1))
        n_asym = d * (d - 1) // 2
        expected = np.sort([asym] * n_asym + [sym] * (d * d - n_asym))
        assert np.allclose(eig, expected, atol=1e-12)

    def test_flip_operator(self):
        f = flip_operator(3)
        v = np.arange(9.0)
        # F|ij> = |ji>
        assert np.allclose((f @ v).reshape(3, 3), v.reshape(3, 3).T)
        assert np.allclose(f @ f, np.eye(9))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_boundary_is_ppt_crossing(self, d):
        below = werner(d, 0.45)
        above = werner(d, 0.55)
        assert not is_npt(below.matrix, (d, d))
        assert is_npt(above.matrix, (d, d))


class TestHorodecki:
    def test_matrix_entries(self):
        rho = horodecki_3x3(1.0).matrix * 21.0
        corners = (0, 4, 8)
        for i in corners:
            for j in corners:
                assert rho[i, j] == pytest.approx(2.0)
        assert rho[1, 1] == pytest.approx(1.5)   # 2.5 - q
        assert rho[2, 2] == pytest.approx(3.5)   # 2.5 + q
        assert rho[7, 7] == pytest.approx(3.5)
        assert np.trace(rho) == pytest.approx(21.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_valid_state_across_range(self, q):
        rho = horodecki_3x3(q)
        assert min_eigenvalue(rho.matrix) > -1e-12

    def test_ppt_region(self):
        # positive partial transpose up to q = 1.5, NPT beyond
        for q in (0.2, 0.8, 1.5):
            assert not is_npt(horodecki_3x3(q).matrix, (3, 3))
        for q in (1.6, 2.0, 2.5):
            assert is_npt(horodecki_3x3(q).matrix, (3, 3))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            horodecki_3x3(-0.1)
        with pytest.raises(ValueError):
            horodecki_3x3(2.6)


class TestPureStates:
    def test_ghz(self):
        psi = ghz(3)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(psi, expected)

    def test_w(self):
        psi = w_state(3)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / np.sqrt(3)
        assert np.allclose(psi, expected)
        assert np.linalg.norm(w_state(5)) == pytest.approx(1.0)

    def test_min_parties(self):
        with pytest.raises(ValueError):
            ghz(1)
        with pytest.raises(ValueError):
            w_state(1)


class TestNoisyMix:
    def test_limits(self):
        psi = ghz(3)
        assert np.allclose(noisy_mix(psi, 0.0, (2, 2, 2)).matrix, np.eye(8) / 8)
        assert np.allclose(noisy_mix(psi, 1.0, (2, 2, 2)).matrix, np.outer(psi, psi.conj()))

    def test_fidelity_is_affine_in_q(self):
        psi = w_state(3)
        q = 0.37
        rho = noisy_mix(psi, q, (2, 2, 2))
        fid = np.real(psi.conj() @ rho.matrix @ psi)
        assert fid == pytest.approx(q + (1 - q) / 8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match dims"):
            noisy_mix(ghz(3), 0.5, (2, 2))


class TestRandomStates:
    def test_valid_density_matrix(self, rng):
        for _ in range(20):
            rho = random_density_matrix(6, rng, dims=(2, 3))
            assert isinstance(rho, DensityMatrix)
            assert rho.dims == (2, 3)
            assert min_eigenvalue(rho.matrix) > -1e-12

    def test_reproducible(self):
        a = random_two_qubit(np.random.default_rng(7)).matrix
        b = random_two_qubit(np.random.default_rng(7)).matrix
        assert np.array_equal(a, b)

    def test_npt_fraction(self):
        # a 100k-sample run (seed 2024) gives 0.75971; re-check with a smaller
        # deterministic sample that the fraction lands in the same band
        rng = np.random.default_rng(2024)
        n = 2000
        hits = sum(is_npt(random_two_qubit(rng).matrix, (2, 2)) for _ in range(n))
        assert abs(hits / n - 0.76) < 0.05


class TestBellAnsatzFamily:
    def test_matrix_layout(self):
        a, b, c = 1 / 6, 0.05, 0.02 + 0.01j
        rho = bell_ansatz_state(a, b, c).matrix
        assert rho[0, 0] == pytest.approx(0.5 - a)
        assert rho[3, 3] == pytest.approx(0.5 - a)
        assert rho[1, 1] == pytest.approx(a)
        assert rho[0, 3] == pytest.approx(a)
        assert rho[0, 1] == pytest.approx(c)
        assert rho[0, 2] == pytest.approx(np.conj(c))
        assert rho[1, 2] == pytest.approx(b)
        assert rho[1, 3] == pytest.approx(-np.conj(c))
        assert np.trace(rho) == pytest.approx(1.0)

    def test_known_distance_point(self):
        # interior point of the region where the distance to the separable
        # set is exactly 1/2: c = 0, a in [0, 1/6], b in [0, a]
        rho = bell_ansatz_state(1 / 8, 0.05, 0.0)
        bell = isotropic(2, 1.0)
        assert trace_distance(rho.matrix, bell.matrix) <= 0.5 + 1e-12

    def test_complex_a_rejected(self):
        with pytest.raises(ValueError, match="must be real"):
            bell_ansatz_state(0.1 + 0.1j, 0.0, 0.0)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="min eigenvalue"):
            bell_ansatz_state(0.5, 0.0, 0.0)


class TestReferenceValues:
    def test_isotropic_distances(self):
        # closed forms: trace (d^2-1)/d^2 (q - 1/(d+1)), hs sqrt(d^2-1)/d (...)
        assert reference_distance("isotropic", "trace", 2, 1.0) == pytest.approx(0.5)
        assert reference_distance("isotropic", "hs", 2, 1.0) == pytest.approx(np.sqrt(3) / 2 * (2 / 3))
        assert reference_distance("isotropic", "trace", 5, 1.0) == pytest.approx(0.8)
        assert reference_distance("isotropic", "trace", 2, 0.2) == 0.0  # clamped

    def test_werner_distances(self):
        assert reference_distance("werner", "trace", 2, 1.0) == pytest.approx(0.5)
        assert reference_distance("werner", "hs", 2, 1.0) == pytest.approx(1 / np.sqrt(3))
        assert reference_distance("werner", "trace", 7, 0.3) == 0.0

    def test_unknown_family_or_metric(self):
        with pytest.raises(ValueError, match="family"):
            reference_distance("ghz", "trace", 2, 0.5)
        with pytest.raises(ValueError, match="metric"):
            reference_distance("werner", "fidelity", 2, 0.9)

    def test_quoted_isotropic_threshold_differs_from_mixing_boundary(self):
        # the tabulated 1/d is a fidelity threshold; in the mixing parameter
        # used here the family turns entangled at 1/(d+1), where the
        # fidelity with the maximally entangled state is 1/d
        for d in (2, 3):
            psi = max_entangled(d)
            fidelity = np.vdot(psi, isotropic(d, 1.0 / (d + 1)).matrix @ psi).real
            assert fidelity == pytest.approx(1.0 / d)


class TestFamilySpec:
    def test_dims(self):
        assert FamilySpec("isotropic", d=3).dims() == (3, 3)
        assert FamilySpec("werner", d=4).dims() == (4, 4)
        assert FamilySpec("horodecki").dims() == (3, 3)
        assert FamilySpec("noisy_ghz", n=4).dims() == (2, 2, 2, 2)
        assert FamilySpec("bell_ansatz").dims() == (2, 2)

    def test_make_dispatch(self):
        assert np.allclose(
            FamilySpec("isotropic", d=2).make(0.4).matrix, isotropic(2, 0.4).matrix
        )
        assert np.allclose(
            FamilySpec("noisy_w", n=3).make(0.3).matrix,
            noisy_mix(w_state(3), 0.3, (2, 2, 2)).matrix,
        )
        spec = FamilySpec("bell_ansatz", ansatz=(1 / 8, 0.05, 0.0))
        assert np.allclose(spec.make(0.0).matrix, bell_ansatz_state(1 / 8, 0.05, 0.0).matrix)

    def test_describe_names_the_fields_each_kind_uses(self):
        assert FamilySpec("isotropic", d=3, n=5).describe() == ["family = isotropic", "d = 3"]
        assert FamilySpec("noisy_w", n=4).describe() == ["family = noisy_w", "n = 4"]
        assert FamilySpec("horodecki", d=7).describe() == ["family = horodecki"]
        assert FamilySpec("bell_ansatz", ansatz=(0.1, 0.0, 0.0)).describe() == [
            "family = bell_ansatz", "a,b,c = (0.1, 0.0, 0.0)"]

    def test_unknown_kind(self):
        spec = FamilySpec("cluster")
        with pytest.raises(ValueError, match="unknown family"):
            spec.dims()
        with pytest.raises(ValueError, match="unknown family"):
            spec.make(0.5)
        with pytest.raises(ValueError, match="unknown family"):
            spec.describe()
