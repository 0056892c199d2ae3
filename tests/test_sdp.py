import numpy as np
import pytest

from irs_swipt.errors import InvalidInput
from irs_swipt.linalg import max_eigval
from irs_swipt.sdp import DEFAULT_TOL, SdpProblem, UnitDiagonalSdp, solve_sdp

from shared import random_hermitian


def lambda_max_problem(c):
    return SdpProblem(c, [(np.eye(c.shape[0]), "==", 1.0)])


def unit_diagonal_problem(op):
    """The problem of a UnitDiagonalSdp stated as an SdpProblem, for the
    generic operator: max tr(C X) s.t. diag(X) = 1, tr(R X) >= r, with C and
    R the leading n x n parts of the operator's padded data."""
    n = len(op.b) - 1
    unit_rows = [(np.diag(e_n), "==", 1.0) for e_n in np.eye(n)]
    return SdpProblem(-op.C[:n, :n], unit_rows + [(op.R[:n, :n], ">=", op.b[-1])])


def v_sdp_data(rng, n, ys=None):
    """Data of the profile SDP's shape: a rank-one objective and a rank-two
    secrecy row at unit norm, which V = I meets strictly.  ys = (yr, yb, ye)
    gives the vectors they are built from; by default they are drawn."""
    if ys is None:
        ys = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
    yr, yb, ye = ys
    row = np.outer(3.0 * yb, 3.0 * yb.conj()) - 2.0 * np.outer(ye, ye.conj())
    rs = 1.0 / max(np.linalg.norm(row), 1.0)
    return 1e3 * np.outer(yr, yr.conj()) / np.linalg.norm(yr) ** 2, rs * row, rs


def neighbouring_v_sdps(rng, n, m=4, step=0.1):
    """Two profile SDPs built from y_x = H_x w at a beamformer w and at
    w + step * (a random direction), as consecutive sdr_ao rounds are."""
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    H, w, dw = draw(3, n, m), draw(m), draw(m)
    return [UnitDiagonalSdp(*v_sdp_data(rng, n, H @ x)) for x in (w, w + step * dw)]


def assert_slacks_on_the_diagonal(sol, op, n, inequalities):
    """The solution's X and Z are diag(n x n part, slacks) with no coupling
    at all, and each slack is its inequality row's signed residual,
    b_i - tr(A_i X) for '<=' and tr(A_i X) - b_i for '>=', to the tolerance
    on the primal residual."""
    for block in (sol.X, sol.Z):
        split = np.zeros_like(block)
        split[:n, :n] = block[:n, :n]
        split[n:, n:] = np.diag(block.diagonal()[n:])
        assert np.array_equal(block, split)
    slacks = sol.X.diagonal()[n:].real
    residuals = [np.trace(a @ sol.X[:n, :n]).real - rhs for a, _, rhs in inequalities]
    signed = [r if sense == ">=" else -r for r, (_, sense, _) in zip(residuals, inequalities)]
    assert np.all(slacks > 0) and np.all(sol.Z.diagonal()[n:].real > 0)
    np.testing.assert_allclose(slacks, signed, rtol=0,
                               atol=DEFAULT_TOL * max(1.0, np.linalg.norm(op.b)))


class TestSolveSdp:
    def test_trace_one_gives_lambda_max(self):
        rng = np.random.default_rng(1)
        c = random_hermitian(rng, 5)
        sol = solve_sdp(lambda_max_problem(c))
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(max_eigval(c), abs=1e-6)

    def test_scalar_lp(self):
        sol = solve_sdp(SdpProblem(np.array([[1.0]]), [(np.array([[1.0]]), "<=", 3.0)]))
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
            x = sol.X
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
        sol = solve_sdp(SdpProblem(np.eye(3), [(np.eye(3), "==", -1.0)]), max_iters=100)
        assert sol.status == "Infeasible"

    def test_iteration_cap_reports_numerical_failure(self):
        rng = np.random.default_rng(6)
        c = random_hermitian(rng, 6)
        sol = solve_sdp(lambda_max_problem(c), max_iters=2)
        assert sol.status == "NumericalFailure"

    def test_zero_iteration_cap_evaluates_the_start(self):
        rng = np.random.default_rng(6)
        sol = solve_sdp(lambda_max_problem(random_hermitian(rng, 6)), max_iters=0)
        assert sol.status == "NumericalFailure"
        assert sol.iterations == 0 and len(sol.history) == 1
        assert np.all(np.isfinite(sol.history))

    @pytest.mark.parametrize("max_iters", [-1, 2.5])
    def test_rejects_bad_iteration_cap(self, max_iters):
        with pytest.raises(InvalidInput, match="max_iters must be an integer >= 0"):
            solve_sdp(lambda_max_problem(np.eye(2)), max_iters=max_iters)

    def test_failed_factorization_reports_numerical_failure(self, monkeypatch):
        # An iterate that fails its Cholesky factorization ends the solve with
        # a documented status instead of an exception.
        calls = []
        original = np.linalg.cholesky

        def failing_on_third_stack(a):
            if np.ndim(a) == 3:  # X and Z stacked; the Schur matrix is 2-D
                calls.append(1)
                if len(calls) == 3:
                    raise np.linalg.LinAlgError("not positive definite")
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_on_third_stack)
        rng = np.random.default_rng(10)
        sol = solve_sdp(lambda_max_problem(random_hermitian(rng, 4)))
        assert sol.status == "NumericalFailure"
        assert sol.iterations == 2  # one stacked X, Z factorization per iteration: the third failed
        assert len(sol.history) == 3

    def test_failed_schur_factorization_reports_numerical_failure(self, monkeypatch):
        # A Schur matrix that is not positive definite is a breakdown, not
        # something to regularize: the solve ends with a documented status.
        import irs_swipt.sdp as sdp
        calls = []
        original = sdp.SdpProblem.schur

        def indefinite_on_fourth(self, X, Zi):
            calls.append(1)
            M = original(self, X, Zi)
            return -M if len(calls) == 4 else M

        monkeypatch.setattr(sdp.SdpProblem, "schur", indefinite_on_fourth)
        rng = np.random.default_rng(10)
        sol = solve_sdp(lambda_max_problem(random_hermitian(rng, 4)))
        assert sol.status == "NumericalFailure"
        # one Schur matrix for the start, then one per iteration: the third iteration's failed
        assert sol.iterations == 2
        assert len(sol.history) == 3

    def test_failed_step_length_eigvalsh_reports_numerical_failure(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def failing_on_fourth(a, *args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_fourth)
        rng = np.random.default_rng(10)
        sol = solve_sdp(lambda_max_problem(random_hermitian(rng, 4)))
        assert sol.status == "NumericalFailure"
        # one stacked call per step length, two per iteration: the second iteration's corrector failed
        assert sol.iterations == 1
        assert len(sol.history) == 2

    def test_mixed_constraint_senses(self):
        # max tr(X) with 0.5 <= tr(X) <= 2 and X <= I elementwise via traces
        sol = solve_sdp(SdpProblem(np.eye(2), [(np.eye(2), ">=", 0.5), (np.eye(2), "<=", 2.0)]))
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

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

            sol = solve_sdp(SdpProblem(c_mat, [(b_mat, ">=", rhs), (np.eye(dim), "<=", 1.0)]))
            assert sol.status == "Optimal"
            assert sol.objective_value == pytest.approx(exact, rel=1e-6)

    def test_mixed_sense_slacks_are_the_signed_residuals(self):
        # one block: the n x n part, then a slack per inequality row, in row order
        rng = np.random.default_rng(20)
        for dim in (1, 3, 6):
            b_mat = random_hermitian(rng, dim)
            rows = [(np.diag(rng.random(dim)), "<=", 10.0), (np.eye(dim), "==", 1.0),
                    (b_mat, ">=", 0.5 * max_eigval(b_mat) - 1.0), (np.eye(dim), "<=", 2.0)]
            inequalities = [row for row in rows if row[1] != "=="]
            prob = SdpProblem(random_hermitian(rng, dim), rows)
            sol = solve_sdp(prob)
            assert sol.status == "Optimal"
            assert sol.X.shape == (dim + 3, dim + 3)
            assert_slacks_on_the_diagonal(sol, prob, dim, inequalities)

    @pytest.mark.parametrize("C, rows, match", [
        pytest.param(np.zeros((0, 0)), [], "objective shape", id="empty-objective"),
        pytest.param(np.ones((2, 3)), [(np.eye(2), "==", 1.0)], "does not match dim",
                     id="non-square-objective"),
        pytest.param(np.ones(2), [(np.eye(2), "==", 1.0)], "objective shape", id="1-D-objective"),
        pytest.param(np.array([[0.0, 1.0], [2.0, 0.0]]), [(np.eye(2), "==", 1.0)],
                     "must be Hermitian", id="non-hermitian-objective"),
        pytest.param(np.eye(2), [], "no constraints", id="no-rows"),
        pytest.param(np.eye(2), [(np.eye(2), "=", 1.0)], "unknown sense", id="unknown-sense"),
        pytest.param(np.eye(2), [(np.eye(3), "<=", 1.0)], "does not match dim",
                     id="dense-row-wrong-shape"),
        pytest.param(np.eye(2), [(np.ones(2), "==", 1.0)], "does not match dim", id="1-D-row"),
        pytest.param(np.eye(2), [(np.array([[0.0, 1.0], [2.0, 0.0]]), ">=", 1.0)],
                     "must be Hermitian", id="non-hermitian-row"),
        pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), [(np.eye(2), "==", 1.0)],
                     "must be finite", id="nan-objective"),
        pytest.param(np.eye(2), [(np.array([[1.0, np.nan], [np.nan, 1.0]]), "<=", 1.0)],
                     "must be finite", id="nan-row"),
        pytest.param(np.eye(2), [(np.eye(2), "==", np.nan)], "not finite", id="nan-rhs"),
        pytest.param(np.eye(2), [(np.eye(2), ">=", np.inf)], "not finite", id="inf-rhs"),
    ])
    def test_constructor_rejects_bad_input(self, C, rows, match):
        with pytest.raises(InvalidInput, match=match):
            SdpProblem(C, rows)

    @pytest.mark.parametrize("c_scale, big_rhs", [
        pytest.param(1e-2, 20.0, id="row-norm-sets-tau_d"),
        pytest.param(1e4, 900.0, id="row-norm-scales-tau_p"),
    ])
    def test_cold_start_follows_the_largest_row_norm(self, c_scale, big_rhs):
        # X = tau_p I and Z = tau_d I, so mu_0 = tau_p tau_d, with
        #   tau_p = 10 max(1, max|b| / norm_A),
        #   tau_d = 10 max(1, max(1, ||C||) / sqrt(n + k), norm_A),
        # norm_A = max(1, max_i ||A_i||_F) over the padded rows, an inequality
        # row counting its slack coefficient: here one large dense row sets it.
        rng = np.random.default_rng(18)
        n = 4
        C = c_scale * random_hermitian(rng, n)
        rows = [(np.eye(n), "<=", 1.0), (60.0 * random_hermitian(rng, n), ">=", big_rhs),
                (np.diag(rng.standard_normal(n)), "==", -2.0)]
        sol = solve_sdp(SdpProblem(C, rows), max_iters=0)

        def mu_0(norm_A):
            tau_p = 10.0 * max(1.0, big_rhs / norm_A)
            tau_d = 10.0 * max(1.0, max(1.0, np.linalg.norm(C)) / np.sqrt(n + 2), norm_A)
            return tau_p * tau_d

        norm_A = max(1.0, max(np.sqrt(np.linalg.norm(a) ** 2 + (sense != "=="))
                              for a, sense, _ in rows))
        assert norm_A > 2.0 * np.sqrt(n)  # the large row sets it, not the identity
        assert mu_0(norm_A) != pytest.approx(mu_0(1.0), rel=0.1)  # and it moves the start
        assert sol.history[0][0] == pytest.approx(mu_0(norm_A), rel=1e-12)

    def test_history_records_every_iterate(self):
        rng = np.random.default_rng(7)
        c = random_hermitian(rng, 3)
        sol = solve_sdp(lambda_max_problem(c))
        assert sol.status == "Optimal"
        assert len(sol.history) == sol.iterations + 1  # the start, then one per step
        assert np.all(np.isfinite(sol.history))
        mu, relgap, pres, dres, pobj, dobj = sol.history[-1]
        assert max(relgap, pres, dres) <= DEFAULT_TOL
        assert (pobj, dobj) == (sol.objective_value, sol.dual_value)


class TestSdpProblem:
    def test_maps_match_their_trace_definitions(self):
        # The reference operator against explicit traces, entry by entry, on
        # diagonal and full Hermitian rows of every sense.  The three slacks
        # follow the n x n data on the diagonal, in row order, with
        # coefficient -1 for '>=' and +1 for '<='.
        rng = np.random.default_rng(17)
        for n in (1, 3, 7):
            data = [np.diag(rng.standard_normal(n)), random_hermitian(rng, n), np.eye(n),
                    np.diag(rng.standard_normal(n)), random_hermitian(rng, n)]
            senses = ["==", ">=", "<=", "==", ">="]
            C = random_hermitian(rng, n)
            prob = SdpProblem(C, [(a, sense, 1.0) for a, sense in zip(data, senses)])
            size = n + 3
            mats = [np.zeros((size, size), dtype=complex) for _ in data]
            for a, padded in zip(data, mats):
                padded[:n, :n] = a
            for i, j, coef in ((1, n, -1.0), (2, n + 1, 1.0), (4, n + 2, -1.0)):
                mats[i][j, j] = coef
            assert np.array_equal(prob.A, mats)
            assert prob.C.shape == (size, size)
            assert np.array_equal(prob.C[:n, :n], -C) and not np.any(prob.C[n:]) and (
                not np.any(prob.C[:, n:]))

            G = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            P = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            X = G @ G.conj().T + np.eye(size)
            Zi = np.linalg.inv(P @ P.conj().T + np.eye(size))
            y = rng.standard_normal(len(mats))
            apply_ = [np.trace(a @ G).real for a in mats]  # G is not Hermitian
            adjoint = sum(y_i * a for y_i, a in zip(y, mats))
            schur = [[np.trace(a @ X @ b @ Zi).real for b in mats] for a in mats]
            np.testing.assert_allclose(prob.apply(G), apply_, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(prob.adjoint(y), adjoint, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(prob.schur(X, Zi), schur, rtol=1e-12, atol=1e-12)


class TestUnitDiagonalSdp:
    def test_operator_matches_generic_assembly(self):
        # The structured operator and SdpProblem agree on the same data: the
        # padded C, b, R's row with its slack coefficient -1 last, and apply,
        # adjoint and schur, whose Zi is Hermitian PD as solve_sdp passes it.
        rng = np.random.default_rng(11)
        for n in (1, 2, 9, 25):
            C, R, r = v_sdp_data(rng, n)
            op = UnitDiagonalSdp(C, R, r)
            ref = unit_diagonal_problem(op)
            assert np.array_equal(op.C, ref.C) and np.array_equal(op.b, ref.b)
            assert np.array_equal(op.R, ref.A[-1])
            assert op.C.shape == op.R.shape == (n + 1, n + 1)
            herm = [0.5 * (a + a.conj().T) for a in (C, R)]  # as both operators store them
            assert np.array_equal(op.C[:n, :n], -herm[0]) and np.array_equal(op.R[:n, :n], herm[1])
            assert op.R[n, n] == -1.0 and not np.any(op.R[n, :n]) and not np.any(op.R[:n, n])
            assert not np.any(op.C[n]) and not np.any(op.C[:, n])

            def close(a, b):
                return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

            size = n + 1
            G = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            X = G @ G.conj().T + np.eye(size)
            P = random_hermitian(rng, size) @ random_hermitian(rng, size).conj().T
            Zi = np.linalg.inv(P @ P.conj().T + np.eye(size))
            y = rng.standard_normal(n + 1)
            assert close(op.apply(G), ref.apply(G))  # apply takes non-Hermitian products
            assert close(op.adjoint(y), ref.adjoint(y))
            assert close(op.schur(X, Zi), ref.schur(X, Zi))

    def test_solves_like_the_generic_operator(self):
        rng = np.random.default_rng(12)
        for n in (1, 4, 9, 25):
            op = UnitDiagonalSdp(*v_sdp_data(rng, n))
            got, want = solve_sdp(op), solve_sdp(unit_diagonal_problem(op))
            assert got.status == want.status == "Optimal"
            assert got.iterations == want.iterations
            assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9)

    def test_slack_is_the_signed_residual(self):
        rng = np.random.default_rng(21)
        for n in (1, 4, 9):
            C, R, r = v_sdp_data(rng, n)
            op = UnitDiagonalSdp(C, R, r)
            sol = solve_sdp(op)
            assert sol.status == "Optimal"
            assert_slacks_on_the_diagonal(sol, op, n, [(R, ">=", r)])

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_right_hand_side(self, r):
        with pytest.raises(InvalidInput, match="not finite"):
            UnitDiagonalSdp(np.eye(3), np.eye(3), r)

    @pytest.mark.parametrize("C, R, match", [
        pytest.param(np.diag([np.nan, 1.0, 1.0]), np.eye(3), "must be finite", id="nan-objective"),
        pytest.param(np.eye(3), np.ones((3, 4)), r"shape \(3, 4\) does not match dim 3",
                     id="non-square-row"),
        pytest.param(np.array([[1.0, 1j], [0.0, 1.0]]), np.eye(2), "must be Hermitian",
                     id="non-hermitian-objective"),
    ])
    def test_rejects_bad_data_as_the_generic_operator_does(self, C, R, match):
        with pytest.raises(InvalidInput, match=match):
            SdpProblem(C, [(R, ">=", 1.0)])
        with pytest.raises(InvalidInput, match=match):
            UnitDiagonalSdp(C, R, 1.0)

    @pytest.mark.parametrize("n, r_norm", [(4, 1.0), (9, 1.0), (25, 1.0), (4, 8.0), (9, 8.0)])
    def test_starts_like_the_generic_operator(self, n, r_norm):
        # With an objective this small the row-norm term sets the dual start,
        # and both operators derive it from their own Schur map: the norm of
        # R's padded row, sqrt(||R||_F^2 + 1) with its slack coefficient, on
        # either side, not sqrt(n) for the unit diagonal.
        rng = np.random.default_rng(19 + n)
        C, R, _ = v_sdp_data(rng, n)
        R *= r_norm / np.linalg.norm(R)
        op = UnitDiagonalSdp(1e-3 * C, R, np.trace(R).real - 1.0)  # V = I meets it strictly
        got, want = solve_sdp(op), solve_sdp(unit_diagonal_problem(op))
        assert got.status == want.status == "Optimal"
        assert got.history[0][0] == pytest.approx(want.history[0][0], rel=1e-12)
        assert got.history[0][0] == pytest.approx(100.0 * np.sqrt(r_norm ** 2 + 1.0), rel=1e-12)
        assert got.iterations == want.iterations


class TestWarmStart:
    def test_neighbour_solves_in_fewer_iterations(self):
        rng = np.random.default_rng(13)
        for n in (4, 9, 25):
            first, second = neighbouring_v_sdps(rng, n)
            prev = solve_sdp(first)
            cold, warm = solve_sdp(second), solve_sdp(second, warm=prev)
            assert prev.status == cold.status == warm.status == "Optimal"
            assert warm.iterations < cold.iterations
            assert abs(warm.objective_value - cold.objective_value) <= (
                DEFAULT_TOL * (1.0 + abs(cold.objective_value)))

    def test_warm_start_solves_like_the_generic_operator(self):
        rng = np.random.default_rng(14)
        for n in (1, 4, 9):
            first, second = neighbouring_v_sdps(rng, n)
            prev = solve_sdp(first)
            got = solve_sdp(second, warm=prev)
            want = solve_sdp(unit_diagonal_problem(second), warm=prev)
            assert got.status == want.status == "Optimal"
            assert got.iterations == want.iterations
            assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9)

    def test_returns_the_final_iterate(self):
        first, _ = neighbouring_v_sdps(np.random.default_rng(15), 5)
        sol = solve_sdp(first)
        mu, *_ = sol.history[-1]
        # the full blocks, 5 x 5 data and then the secrecy row's slack
        assert sol.X.shape == sol.Z.shape == (6, 6) and sol.y.shape == first.b.shape
        s, z = sol.X[5, 5].real, sol.Z[5, 5].real
        assert s > 0 and z > 0
        assert (np.vdot(sol.X[:5, :5], sol.Z[:5, :5]).real + s * z) / 6 == (
            pytest.approx(mu, rel=1e-12))

    @pytest.mark.parametrize("other", [
        pytest.param(lambda rng: UnitDiagonalSdp(*v_sdp_data(rng, 6)), id="block-size"),
        pytest.param(lambda rng: lambda_max_problem(random_hermitian(rng, 4)), id="slack-count"),
        pytest.param(lambda rng: lambda_max_problem(random_hermitian(rng, 5)), id="row-count"),
    ])
    def test_rejects_a_mismatched_warm_start(self, other):
        rng = np.random.default_rng(16)
        warm = solve_sdp(other(rng))
        with pytest.raises(InvalidInput, match="warm start"):
            solve_sdp(UnitDiagonalSdp(*v_sdp_data(rng, 4)), warm=warm)
