import numpy as np
import pytest

from irs_swipt.errors import InvalidInput
from irs_swipt.linalg import max_eigval
from irs_swipt.sdp import SdpProblem, solve_sdp


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def lambda_max_problem(c):
    p = SdpProblem()
    blk = p.add_hermitian_block(c.shape[0])
    p.add_objective(blk, c)
    p.add_constraint([(blk, np.eye(c.shape[0]))], "==", 1.0)
    return p


class TestSolveSdp:
    def test_trace_one_gives_lambda_max(self):
        rng = np.random.default_rng(1)
        c = random_hermitian(rng, 5)
        sol = solve_sdp(lambda_max_problem(c))
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(max_eigval(c), abs=1e-6)

    def test_scalar_lp(self):
        p = SdpProblem()
        t = p.add_hermitian_block(1)
        p.add_objective(t, np.array([[1.0]]))
        p.add_constraint([(t, np.array([[1.0]]))], "<=", 3.0)
        sol = solve_sdp(p)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-6)

    def test_lambda_max_family(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            c = random_hermitian(rng, dim)
            sol = solve_sdp(lambda_max_problem(c))
            lm = max_eigval(c)
            assert sol.status == "Optimal"
            assert abs(sol.objective_value - lm) <= 1e-6 * (1.0 + abs(lm))
            assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective_value))

    def test_weak_duality_on_result(self):
        rng = np.random.default_rng(3)
        c = random_hermitian(rng, 6)
        sol = solve_sdp(lambda_max_problem(c))
        # maximization: reported primal never exceeds the dual bound
        assert sol.objective_value <= sol.dual_value + 1e-9 * (1.0 + abs(sol.dual_value))

    def test_solution_stays_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_hermitian(rng, 7)
            sol = solve_sdp(lambda_max_problem(c))
            x = sol.blocks[0]
            assert np.linalg.eigvalsh(x)[0] >= -1e-8 * max(np.linalg.norm(x), 1e-30)

    def test_sampled_feasible_points_lower_bound(self):
        # 10^6 random feasible points cannot beat the reported optimum
        rng = np.random.default_rng(5)
        dim = 4
        c = random_hermitian(rng, dim)
        sol = solve_sdp(lambda_max_problem(c))
        best = -np.inf
        for _ in range(10):
            a = rng.standard_normal((100_000, dim, 2)) @ np.array([1.0, 1.0j])
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            vals = np.real(np.einsum("ki,ij,kj->k", a.conj(), c, a))
            best = max(best, float(vals.max()))
        assert sol.objective_value >= best - 1e-6

    def test_primal_infeasibility_detected(self):
        p = SdpProblem()
        blk = p.add_hermitian_block(3)
        p.add_objective(blk, np.eye(3))
        p.add_constraint([(blk, np.eye(3))], "==", -1.0)
        sol = solve_sdp(p, max_iters=100)
        assert sol.status == "Infeasible"

    def test_iteration_cap_reports_numerical_failure(self):
        rng = np.random.default_rng(6)
        c = random_hermitian(rng, 6)
        sol = solve_sdp(lambda_max_problem(c), max_iters=2)
        assert sol.status == "NumericalFailure"

    def test_mixed_constraint_senses(self):
        # max tr(X) with 0.5 <= tr(X) <= 2 and X <= I elementwise via traces
        p = SdpProblem()
        blk = p.add_hermitian_block(2)
        p.add_objective(blk, np.eye(2))
        p.add_constraint([(blk, np.eye(2))], ">=", 0.5)
        p.add_constraint([(blk, np.eye(2))], "<=", 2.0)
        sol = solve_sdp(p)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

    def test_multiblock_coupling(self):
        # max tr(X) + s  s.t. tr(X) + s = 1  ->  1
        p = SdpProblem()
        blk = p.add_hermitian_block(2)
        slack = p.add_hermitian_block(1)
        p.add_objective(blk, np.eye(2))
        p.add_objective(slack, np.array([[1.0]]))
        p.add_constraint([(blk, np.eye(2)), (slack, np.array([[1.0]]))], "==", 1.0)
        sol = solve_sdp(p)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_mixed_senses_match_exact_dual(self):
        # The W-SDP shape: max tr(C X) s.t. tr(B X) >= c, tr(X) <= 1, X >= 0.
        # Its dual is the convex 1-D problem
        #   min_{lam >= 0} max(lambda_max(C + lam B), 0) - lam c,
        # solved here by ternary search as an exact reference.
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            c_mat = g @ g.conj().T
            b_mat = random_hermitian(rng, dim)
            rhs = 0.5 * max_eigval(b_mat)

            def dual(lam):
                return max(max_eigval(c_mat + lam * b_mat), 0.0) - lam * rhs

            hi = 1.0
            while dual(2.0 * hi) < dual(hi):
                hi *= 2.0
            lo, hi = 0.0, 2.0 * hi
            for _ in range(200):
                m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
                if dual(m1) <= dual(m2):
                    hi = m2
                else:
                    lo = m1
            exact = dual(0.5 * (lo + hi))

            p = SdpProblem()
            blk = p.add_hermitian_block(dim)
            p.add_objective(blk, c_mat)
            p.add_constraint([(blk, b_mat)], ">=", rhs)
            p.add_constraint([(blk, np.eye(dim))], "<=", 1.0)
            sol = solve_sdp(p)
            assert sol.status == "Optimal"
            assert sol.objective_value == pytest.approx(exact, rel=1e-6)

    def test_debug_log_written(self, tmp_path):
        rng = np.random.default_rng(7)
        c = random_hermitian(rng, 3)
        log = tmp_path / "iters.log"
        solve_sdp(lambda_max_problem(c), log_file=str(log))
        lines = log.read_text().strip().splitlines()
        assert lines and all("mu" in ln and "gap" in ln for ln in lines)

    def test_rejects_non_hermitian_data(self):
        p = SdpProblem()
        blk = p.add_hermitian_block(2)
        with pytest.raises(InvalidInput):
            p.add_objective(blk, np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_empty_constraint_set(self):
        p = SdpProblem()
        blk = p.add_hermitian_block(2)
        p.add_objective(blk, np.eye(2))
        with pytest.raises(InvalidInput):
            solve_sdp(p)
