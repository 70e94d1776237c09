import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import candidate_lanes
from lanespace import (
    DimensionMismatch,
    EigenBasis,
    Lane,
    LaneMatrix,
    RankDeficient,
    SamplingGrid,
    build_basis,
    project,
    reconstruct,
    stripe_iou,
)
from lanespace.eigenspace import low_rank_residual


def singular_values_by_power_iteration(a, tol=1e-14, max_iter=20000):
    """All positive singular values of a via power iteration with deflation.

    Works on the Gram matrix a^T a (or a a^T, whichever is smaller) and
    peels off one eigenpair at a time. Independent of any dense SVD routine.
    """
    a = np.asarray(a, dtype=np.float64)
    gram = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    n = gram.shape[0]
    rng = np.random.default_rng(1234)
    values = []
    work = gram.copy()
    scale = np.linalg.norm(gram)
    for _ in range(n):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iter):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm <= scale * 1e-18:
                lam = 0.0
                break
            v_next = w / norm
            lam_next = float(v_next @ work @ v_next)
            if abs(lam_next - lam) <= tol * max(1.0, abs(lam_next)):
                v, lam = v_next, lam_next
                break
            v, lam = v_next, lam_next
        if lam <= scale * 1e-12:
            break
        values.append(np.sqrt(lam))
        work = work - lam * np.outer(v, v)
    return np.array(sorted(values, reverse=True))


def lane_from(grid, xs):
    return Lane(np.asarray(xs, dtype=np.float64), grid.n_samples, grid)


def approximation_error(matrix, basis):
    """Sum of squared residuals of the matrix's columns against the rank-m basis."""
    return float(np.sum(low_rank_residual(matrix.columns, basis.u) ** 2))


def trailing_energy(basis, m):
    """sum(s_i^2) over the spectrum beyond the first m singular values."""
    return float(np.sum(basis.singular_values[m:] ** 2))


@pytest.fixture(scope="module")
def tiny_grid():
    return SamplingGrid(100, 50, np.linspace(49.0, 10.0, 6))


class TestBuildBasis:
    def test_rank_one_matrix(self, tiny_grid):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        matrix = LaneMatrix(np.column_stack([x, x]), tiny_grid)
        basis = build_basis(matrix, 1)
        assert basis.singular_values.size == 1
        unit = x / np.linalg.norm(x)
        assert np.allclose(np.abs(basis.u[:, 0]), unit, atol=1e-12)
        # sign convention: largest-magnitude entry non-negative
        pivot = np.argmax(np.abs(basis.u[:, 0]))
        assert basis.u[pivot, 0] >= 0

    def test_diagonal_matrix(self):
        grid = SamplingGrid(10, 10, np.linspace(9.0, 1.0, 2))
        matrix = LaneMatrix(np.array([[3.0, 0.0], [0.0, 1.0]]), grid)
        basis = build_basis(matrix, 2)
        assert np.allclose(basis.singular_values, [3.0, 1.0])
        assert np.allclose(basis.u, np.eye(2), atol=1e-12)

    def test_singular_values_match_power_iteration_oracle(self, tiny_grid):
        rng = np.random.default_rng(77)
        a = rng.normal(scale=10.0, size=(6, 8))
        matrix = LaneMatrix(a, tiny_grid)
        basis = build_basis(matrix, 4)
        oracle = singular_values_by_power_iteration(a)
        assert oracle.size == basis.singular_values.size
        assert np.allclose(basis.singular_values, oracle, rtol=1e-8)

    def test_rank_deficient_raises_with_achievable_rank(self, tiny_grid):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        matrix = LaneMatrix(np.column_stack([x, 2 * x, -x]), tiny_grid)
        with pytest.raises(RankDeficient) as excinfo:
            build_basis(matrix, 2)
        assert excinfo.value.achievable == 1

    def test_deterministic_bit_identical(self, train_lanes):
        matrix = LaneMatrix.from_lanes(train_lanes)
        b1 = build_basis(matrix, 5)
        b2 = build_basis(matrix, 5)
        assert np.array_equal(b1.u, b2.u)
        assert np.array_equal(b1.singular_values, b2.singular_values)

    def test_orthonormal_columns(self, basis):
        gram = basis.u.T @ basis.u
        assert np.max(np.abs(gram - np.eye(basis.m))) <= 1e-9


class TestProjectReconstruct:
    def test_project_reconstruct_roundtrip(self, basis):
        rng = np.random.default_rng(3)
        c = rng.normal(scale=200.0, size=(20, basis.m))
        assert np.allclose(project(basis, reconstruct(basis, c)), c, atol=1e-9)

    def test_each_row_is_its_own_gemv(self, basis, candidates, train_lanes):
        # one gemm rounds differently; candidates, offsets and detections keep the gemv bits
        xs = LaneMatrix.from_lanes(train_lanes).columns.T
        assert all(map(np.array_equal, project(basis, xs), (basis.u.T @ x for x in xs)))
        c = candidates.coefficients
        assert all(map(np.array_equal, reconstruct(basis, c), (basis.u @ row for row in c)))

    def test_scaled_basis_column_projects_to_unit_vector(self, basis):
        sigma1 = basis.singular_values[0]
        c = project(basis, sigma1 * basis.u[:, :1].T)
        expected = np.zeros((1, basis.m))
        expected[0, 0] = sigma1
        assert np.allclose(c, expected, atol=1e-9)

    def test_residual_non_increasing_in_rank(self, train_lanes):
        matrix = LaneMatrix.from_lanes(train_lanes[:200])
        full = build_basis(matrix, 8)
        residuals = []
        for m in range(1, 9):
            u = full.u[:, :m]
            r = matrix.columns - u @ (u.T @ matrix.columns)
            residuals.append(np.sum(r**2, axis=0))
        residuals = np.array(residuals)
        assert np.all(residuals[1:] <= residuals[:-1] + 1e-9)

    def test_reconstruct_zero_gives_zero_lane(self, basis):
        xs = reconstruct(basis, np.zeros((1, basis.m)))
        assert xs.shape == (1, basis.grid.n_samples)
        assert np.allclose(xs, 0.0)

    def test_reconstruct_basis_column(self, basis):
        c = np.zeros((1, basis.m))
        c[0, 0] = basis.singular_values[0]
        xs = reconstruct(basis, c)
        assert np.allclose(xs[0], basis.singular_values[0] * basis.u[:, 0])

    def test_dimension_mismatch(self, basis):
        with pytest.raises(DimensionMismatch):
            reconstruct(basis, np.zeros((1, basis.m + 1)))

    def test_grid_mismatch(self, basis):
        # a stack sampled on a ladder of another length has no coefficients here
        other = SamplingGrid.uniform(1280, 720, basis.grid.n_samples + 1)
        with pytest.raises(DimensionMismatch):
            project(basis, np.zeros((2, other.n_samples)))

    def test_total_residual_equals_trailing_energy(self, train_lanes, basis):
        xs = LaneMatrix.from_lanes(train_lanes).columns.T
        total = float(np.sum((xs - reconstruct(basis, project(basis, xs))) ** 2))
        assert total == pytest.approx(trailing_energy(basis, basis.m), rel=1e-6)


class TestApproximationError:
    def test_full_rank_error_is_zero(self, tiny_grid):
        rng = np.random.default_rng(5)
        a = rng.normal(scale=20.0, size=(6, 5))
        matrix = LaneMatrix(a, tiny_grid)
        basis = build_basis(matrix, 5)
        err = approximation_error(matrix, basis)
        assert err <= 1e-9 * float(np.sum(a**2))

    def test_rank_one_with_m_one(self, tiny_grid):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        matrix = LaneMatrix(np.column_stack([x, 0.5 * x]), tiny_grid)
        basis = build_basis(matrix, 1)
        assert approximation_error(matrix, basis) == pytest.approx(0.0, abs=1e-9)

    def test_matches_oracle_tail_energy(self):
        grid = SamplingGrid(200, 120, np.linspace(110.0, 20.0, 10))
        rng = np.random.default_rng(99)
        a = rng.normal(scale=15.0, size=(10, 50))
        matrix = LaneMatrix(a, grid)
        basis = build_basis(matrix, 3)
        oracle = singular_values_by_power_iteration(a)
        expected = float(np.sum(oracle[3:] ** 2))
        assert approximation_error(matrix, basis) == pytest.approx(expected, rel=1e-6)

    def test_eckart_young_beats_random_rank_m(self, tiny_grid):
        rng = np.random.default_rng(31)
        a = rng.normal(scale=10.0, size=(6, 12))
        # reuse a wider grid matching 12 columns is unnecessary; rows count is 6
        matrix = LaneMatrix(a, tiny_grid)
        for m in (1, 2, 3):
            basis = build_basis(matrix, m)
            best = approximation_error(matrix, basis)
            assert best == pytest.approx(trailing_energy(basis, m), rel=1e-8)
            scale = np.linalg.norm(a)
            for _ in range(100):
                q, _ = np.linalg.qr(rng.normal(size=(6, m)))
                b = q @ rng.normal(scale=scale / np.sqrt(m * 12), size=(m, 12))
                assert best <= float(np.sum((a - b) ** 2)) + 1e-9


class TestRefineAndIsometry:
    def test_zero_delta_is_identity(self, basis):
        c = np.linspace(-50.0, 80.0, basis.m)
        assert np.array_equal(reconstruct(basis, [c + np.zeros(basis.m)]), reconstruct(basis, [c]))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_refinement_norm_equals_delta_norm(self, basis, data):
        floats = st.floats(min_value=-300.0, max_value=300.0)
        c = np.array(data.draw(st.lists(floats, min_size=basis.m, max_size=basis.m)))
        d = np.array(data.draw(st.lists(floats, min_size=basis.m, max_size=basis.m)))
        moved, base = reconstruct(basis, [c + d, c])
        assert np.linalg.norm(moved - base) == pytest.approx(
            np.linalg.norm(d), abs=1e-9
        )

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_transform_is_isometric(self, basis, data):
        floats = st.floats(min_value=-500.0, max_value=500.0)
        c1 = np.array(data.draw(st.lists(floats, min_size=basis.m, max_size=basis.m)))
        c2 = np.array(data.draw(st.lists(floats, min_size=basis.m, max_size=basis.m)))
        lhs = np.linalg.norm(basis.u @ c1 - basis.u @ c2)
        assert lhs == pytest.approx(np.linalg.norm(c1 - c2), abs=1e-9)

    def test_refining_toward_projected_target_improves_iou(self, basis, candidates, grid, train_lanes):
        # exact coefficient correction recovers the low-rank view of the target
        target = train_lanes[7]
        cand_idx = 3
        c = candidates.coefficients[cand_idx]
        delta = project(basis, [target.xs])[0] - c
        refined = Lane(reconstruct(basis, [c + delta])[0], basis.grid.n_samples, basis.grid)
        before = stripe_iou(candidate_lanes(candidates)[cand_idx], target, 30)
        after = stripe_iou(refined, target, 30)
        assert after >= before
        assert after > 0.8

    def test_mismatched_delta_length(self, basis):
        # an offset carrying more coefficients than the basis rank
        with pytest.raises(DimensionMismatch):
            reconstruct(basis, np.zeros((1, basis.m + 2)) + np.ones(basis.m + 2))


class TestEigenBasisValidation:
    def test_rejects_non_orthonormal(self, tiny_grid):
        u = np.ones((6, 2))
        with pytest.raises(ValueError):
            EigenBasis(u, np.array([2.0, 1.0]), tiny_grid)

    def test_rejects_increasing_singular_values(self, tiny_grid):
        u = np.eye(6)[:, :2]
        with pytest.raises(ValueError):
            EigenBasis(u, np.array([1.0, 2.0]), tiny_grid)

    def test_content_id_stable_and_distinct(self, basis, train_lanes):
        other = build_basis(LaneMatrix.from_lanes(train_lanes), 5)
        assert basis.content_id == basis.content_id
        assert basis.content_id != other.content_id
