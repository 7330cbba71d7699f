import numpy as np
import pytest

from sepnet import (
    DensityMatrix,
    hermitianize,
    hs_distance,
    max_entangled,
    min_eigenvalue,
    partial_transpose,
    purity,
    trace_distance,
)
from sepnet.linalg import PSD_TOL, as_matrix


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitianize(g)


def test_hermitianize(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitianize(m)
    assert np.allclose(h, h.conj().T)


def test_min_eigenvalue_and_is_psd():
    m = np.diag([0.5, 0.5, -0.1])
    assert min_eigenvalue(m) == pytest.approx(-0.1)
    # a density matrix is PSD when its min eigenvalue is at least -PSD_TOL
    DensityMatrix(np.diag([1.0 + PSD_TOL / 2, -PSD_TOL / 2]), (2,))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        DensityMatrix(np.diag([1.0 + 2 * PSD_TOL, -2 * PSD_TOL]), (2,))


class TestPartialTranspose:
    def test_single_qubit_pair_explicit(self):
        # PT on party 1 transposes each 2x2 block of the 2x2 block matrix
        rho = np.arange(16, dtype=complex).reshape(4, 4)
        pt = partial_transpose(rho, (2, 2), 1)
        expected = rho.copy()
        for i in range(2):
            for j in range(2):
                expected[2 * i:2 * i + 2, 2 * j:2 * j + 2] = \
                    rho[2 * i:2 * i + 2, 2 * j:2 * j + 2].T
        assert np.array_equal(pt, expected)

    def test_involution_and_diagonal(self, rng):
        dims = (2, 3, 2)
        rho = random_hermitian(12, rng)
        for subs in (0, 1, 2, (0, 2), (1, 2)):
            pt = partial_transpose(rho, dims, subs)
            assert np.array_equal(partial_transpose(pt, dims, subs), rho)
            assert np.array_equal(np.diagonal(pt), np.diagonal(rho))

    def test_all_parties_is_full_transpose(self, rng):
        rho = random_hermitian(6, rng)
        assert np.array_equal(partial_transpose(rho, (2, 3), (0, 1)), rho.T)

    def test_complementary_cuts_related_by_transpose(self, rng):
        rho = random_hermitian(6, rng)
        a = partial_transpose(rho, (2, 3), 0)
        b = partial_transpose(rho, (2, 3), 1)
        assert np.allclose(a, b.T)

    def test_bell_state_spectrum(self):
        # the canonical entanglement witness: PT of the Bell state has a -1/2 eigenvalue
        psi = max_entangled(2)
        rho = np.outer(psi, psi.conj())
        w = np.linalg.eigvalsh(partial_transpose(rho, (2, 2), 1))
        assert np.allclose(sorted(w), [-0.5, 0.5, 0.5, 0.5])

    def test_shape_and_subsystem_validation(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), (2, 3), 0)
        with pytest.raises(ValueError):
            partial_transpose(np.eye(6), (2, 3), 2)


def test_trace_distance_hand_values():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == 0.0
    # diag(-1/6, 1/6, 1/6, -1/6) plus -1/3 corners: eigenvalues of the corner
    # block {-1/2, 1/6}, of the middle block {1/6, 1/6} -> half-sum = 1/2
    delta = np.diag([-1 / 6, 1 / 6, 1 / 6, -1 / 6]).astype(complex)
    delta[0, 3] = delta[3, 0] = -1 / 3
    assert trace_distance(delta, np.zeros((4, 4))) == pytest.approx(0.5, abs=1e-12)


def test_hs_distance_same_example():
    delta = np.diag([-1 / 6, 1 / 6, 1 / 6, -1 / 6]).astype(complex)
    delta[0, 3] = delta[3, 0] = -1 / 3
    # sqrt(4*(1/6)^2 + 2*(1/3)^2) = sqrt(1/3)
    assert hs_distance(delta, np.zeros((4, 4))) == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_distances_are_metrics_on_samples(rng):
    states = [random_hermitian(4, rng) for _ in range(3)]
    a, b, c = states
    for dist in (trace_distance, hs_distance):
        assert dist(a, b) == pytest.approx(dist(b, a))
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_purity_range(rng):
    psi = max_entangled(2)
    pure = np.outer(psi, psi.conj())
    assert purity(pure) == pytest.approx(1.0)
    assert purity(np.eye(4) / 4) == pytest.approx(0.25)


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert dm.dims == (2, 2)
        assert np.array_equal(dm.matrix, np.eye(4) / 4)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_not_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_not_psd(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_not_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.full((2, 2), np.nan), (2,))

    def test_equality_is_exact_and_a_bool(self):
        a = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert (a == DensityMatrix(np.eye(4) / 4, (2, 2))) is True
        assert (a == DensityMatrix(np.eye(4) / 4, (4,))) is False
        nudged = np.eye(4) / 4
        nudged[0, 1] = nudged[1, 0] = 1e-15
        assert (a == DensityMatrix(nudged, (2, 2))) is False
        assert (a != DensityMatrix(np.eye(2) / 2, (2,))) is True
        assert (a == "rho") is False and a.__eq__(a.matrix) is NotImplemented
        with pytest.raises(TypeError):
            hash(a)

    def test_as_matrix_passthrough(self):
        dm = DensityMatrix(np.eye(2) / 2, (2,))
        assert as_matrix(dm) is dm.matrix
        arr = np.eye(3)
        assert as_matrix(arr) is arr
