"""Phase-grid references at desk scale.

grid_search_joint enumerates the IRS phase profile over a per-element phase
grid and solves the beamformer exactly for each profile.  For a fixed
augmented profile v, let r, b, e = H_r^H v, H_b^H v, H_e^H v.  The harvested
power is zeta |r^H w|^2 and the secrecy constraint reads w^H A w >= (2^r0 - 1) s2
with A = b b^H - 2^r0 e e^H.  As 2^r0 > 1, scaling w up never hurts either,
so full power is optimal: w = sqrt(Ps) x with x solving

    max x^H R x   s.t.  x^H A x >= c,  ||x|| = 1,     R = r r^H,  c = (2^r0 - 1) s2 / Ps.

A QCQP with two constraints has a tight semidefinite relaxation (Huang &
Palomar, IEEE TSP 2010), so its value is that of the convex 1-D dual
min_{lam >= 0} f(lam) = lambda_max(R + lam A) - lam c.

The rows r, b, e are separable: each is the direct row plus one term per
element, roots[level] conj(H[n, :]).  Per-element tables of those terms are
summed once over the trailing elements, and each block of profiles
broadcasts the leading elements' sums against that table, in mixed-radix
order (element 0 slowest), with no matrix product per profile.

No profile is worth more than ||r||^2 (MRT at full power) nor, for any
lam >= 0, f(lam).  So a first pass over ||r||^2 alone finds the profile of
largest ||r||^2, and its exact value screens the second pass: only profiles
with ||r||^2, and f at the incumbent's multiplier, above the incumbent's
value (with a 1e-12 relative margin for rounding) reach the per-profile
kernel: on the desk grid, under 1% of the 65,536 profiles where MRT wins
and under 10% where the constraint binds on every profile.  The kernel
screens a block from inner products: a profile is infeasible when
lambda_max(A) <= c, and its value is ||r||^2 when MRT (x = r / ||r||) meets
the constraint.  Where it binds, the dual is minimized in closed form at M = 2
and by golden-section search over batched eigvalsh at M = 3.  The beamformer
is recovered at the winning profile only, by a bisection that starts from
the few ulps around the multiplier the kernel returned for it, and the
value returned is the harvested power of the recovered pair.

The screens read no rows, except the second pass at lam > 0 when M = 3,
which builds each block's rows.  With C = conj(H_r), r = sum_n v_n C[n]
(v_N = 1), and with K = C C^H, ||r||^2 = v^H K v is a real quadratic form
in the digits d_n of v_n = roots[d_n]: tr K, plus a_p[d_p] = 2 Re(roots[d_p]
K[p, N]) per element, plus c_pq[(d_q - d_p) mod levels] = 2 Re(conj(roots[j])
K[p, q]) per pair of elements.  Three kinds of tables of `levels` entries
give it.  The pair table is circulant in (d_p, d_q): its row d_p is a window
of c_pq repeated twice, a zero-copy view.  The part over the trailing
elements is summed once; each block of profiles adds the leading elements'
entries and broadcasts their circulant rows along the trailing axes.  Any
Hermitian kernel K gives such a form (_form), and at M = 2 so does the dual
function at lam > 0: with S = R + lam A, T = (S00 + S11) / 2 and H = (S00 -
S11) / 2,

    f(lam) = T - lam c + sqrt(H^2 + (Re S01)^2 + (Im S01)^2),

where T, H, Re S01 and Im S01 are forms in v, of one stack of four kernels
rebuilt whenever the incumbent's lam changes (_dual_form).  The forms round
differently from the rows, so these screens keep every profile within delta
= 64 eps (sum_n ||C[n]||)^2 below the cut by ||r||^2 (_norm2_form derives
the bound) and within delta_f, the sum of the four forms' bounds, by f
(_dual_form; the square root is 1-Lipschitz).  Where r cancels, delta is far
above the 1e-12 relative margin.  delta and delta_f can only keep more
profiles, and the kernel, on the rows, decides.  On the oracle_desk benchmark
(perfbench/run.py, 50 s, seed 0, 2-core host, medians of ten runs), the
||r||^2 form screen raised solves_per_s from 408.9 to 585.9, and the dual
form screen with the recovery from the kernel's multiplier from 378.5 to
602.4 (ten alternating pairs).

grid_search_phases scans the same phase grid, with the same separable rows,
for a fixed beamformer.

Neither shares code with the solvers they check (nothing from sdr, sca or
sdp).  Everything is deterministic: profiles are scanned in a fixed order and
ties break toward the lowest grid index.
"""

from dataclasses import dataclass, fields
from numbers import Integral
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridTooLarge, InvalidInput, SubproblemInfeasible
from .metrics import harvested_power

EVAL_CAP = 10 ** 8          # phase profiles per search
CHUNK = 2 ** 14             # profiles per batch, which bounds memory at N = 3
SCREEN_MARGIN = 1e-12       # relative slack of the profile screens
GOLDEN_STEPS = 80           # M = 3 dual only: its bracket shrinks to 0.618**80 ~ 2e-17
MAX_BISECTIONS = 200        # halvings per bisection in the recovery
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class GridSpec:
    """Grid of a brute-force search.

    phase_levels is the number of phases per IRS element.  subspace_points
    and power_levels are still validated and accepted, as the acceptance
    suite passes them, but no longer change the result: the beamformer is
    solved exactly for each profile, at full power.
    """

    phase_levels: int = 64
    subspace_points: int = 512
    power_levels: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, Integral):
                raise InvalidInput(f"{f.name} must be an integer")
            setattr(self, f.name, int(value))  # numpy integers would wrap in levels ** n
        if self.phase_levels < 2 or self.subspace_points < 2:
            raise InvalidInput("grid levels must be >= 2")
        if self.power_levels < 1:
            raise InvalidInput("power_levels must be >= 1")


def _separable_rows(coef, levels):
    """The rows coef[n] + sum_{i<n} roots[d_i] coef[i], one per digit profile
    d of the levels-per-element phase grid (n = coef.shape[0] - 1), stored
    transposed: a row's k entries form a column.

    Returns (fast, heads, slow).  fast (k, F) holds the sums over the
    trailing elements, as many as fit in CHUNK columns, and is computed once;
    the leading `slow` elements are summed per block.  heads() yields (start,
    head, digits): head (k, run) holds the leading elements' sums plus the
    direct row coef[n], for runs of them, and digits their grid digits, one
    index per leading element (a slice when there is one).  Column i * F + j
    of _block(head, fast) is the profile of grid index start * F + i * F + j,
    so element 0 varies slowest.  A row is summed in the same order however it
    is formed, so a profile's row is the same to the bit.  Raises GridTooLarge,
    before any table is built, when the grid holds more than EVAL_CAP profiles.
    """
    n, k = coef.shape[0] - 1, coef.shape[1]
    if levels ** n > EVAL_CAP:
        raise GridTooLarge(f"{levels ** n} phase profiles exceed the cap {EVAL_CAP}")
    tables = coef[:-1, :, None] * _roots(levels)  # (n, k, levels)
    slow = next(s for s in range(n + 1) if levels ** (n - s) <= CHUNK)
    fast = np.zeros((k, 1), dtype=complex)
    for t in tables[slow:]:
        fast = _block(fast, t)
    run = CHUNK // fast.shape[1]

    def heads():
        total = levels ** slow
        for start in range(0, total, run):
            stop = min(start + run, total)
            digits = ((slice(start, stop),) if slow == 1 else
                      np.unravel_index(np.arange(start, stop), (levels,) * slow) if slow else ())
            head = np.repeat(coef[-1][:, None], stop - start, axis=1)
            for t, d in zip(tables[:slow], digits):
                head += t[:, d]
            yield start, head, digits

    return fast, heads, slow


def _form(K, levels, slow):
    """The real forms sum_pq v_p conj(v_q) K[..., p, q] of a stack of
    Hermitian kernels K (..., N + 1, N + 1), v_n = roots[d_n] and v_N = 1, of
    the profiles of the phase grid (see the module docstring), in the layout
    of _separable_rows with `slow` leading elements.

    Returns form(digits): for the digits of a head run, the run's values
    (..., profiles) in the order of its profiles.  The part over the trailing
    elements is built here, the circulant rows are views, and a run takes one
    entry or row per leading element or pair, with no index arithmetic per
    profile.  The trailing elements' axes are counted from the end, behind the
    stack's.
    """
    n = K.shape[-1] - 1
    roots = _roots(levels)
    a = 2.0 * (K[..., :-1, -1, None] * roots).real  # a[..., p, d]

    def circulant(p, q):  # row d_p holds c_pq[(d_q - d_p) mod levels] over d_q
        c = 2.0 * (K[..., p, q, None] * roots.conj()).real
        twice = np.concatenate([c, c], axis=-1)
        return sliding_window_view(twice, levels, axis=-1)[..., levels:0:-1, :]

    def others(*elements):  # the axes of the other trailing elements
        return tuple(i - n for i in range(slow, n) if i not in elements)

    fast = np.trace(K, axis1=-2, axis2=-1).real.reshape(K.shape[:-2] + (1,) * (n - slow))
    for p in range(slow, n):
        fast = fast + np.expand_dims(a[..., p, :], others(p))
        for q in range(p + 1, n):
            fast = fast + np.expand_dims(circulant(p, q), others(p, q))
    fast = np.expand_dims(fast, -1 - (n - slow))  # the axis of the run
    slow_pairs = [(p, q, circulant(p, q)) for q in range(slow) for p in range(q)]
    cross = [(p, circulant(p, q), others(q)) for p in range(slow) for q in range(slow, n)]

    def form(digits):
        part = (sum(a[..., p, d] for p, d in enumerate(digits))
                + sum(t[..., digits[p], digits[q]] for p, q, t in slow_pairs))
        out = np.expand_dims(part, tuple(range(-(n - slow), 0))) + fast
        for p, t, axes in cross:
            out += np.expand_dims(t[..., digits[p], :], axes)
        return out.reshape(K.shape[:-2] + (-1,))

    return form


def _norm2_form(C, levels, slow):
    """||r||^2, r = sum_n v_n C[n] with v_n = roots[d_n] and v_N = 1, of the
    profiles of the phase grid: the _form of K = C C^H.  Returns (norm2,
    delta).

    delta = 64 eps S^2, S = sum_n ||C[n]||, bounds |norm2 - _norm2 of the
    rows|.  Each product v_p conj(v_q) K[p, q] of ||r||^2 has modulus at most
    ||C[p]|| ||C[q]||, and these bounds sum to S^2.  So a step that rounds
    each term, or each partial sum, by a relative k eps moves the total by at
    most k eps S^2.  To first order, in units of eps:
    - a root is off by 11: its angle 2 pi d / levels < 2 pi takes three
      roundings of eps / 2, and exp one unit;
    - the rows: an entry sums N + 1 complex products (1.5 each) with at most
      N additions (0.5 each), so ||r|| moves by (12.5 + N / 2) eps S and
      ||r||^2 by twice that times S; _norm2's squares and sums add M;
    - the form: K[p, q], an M-term inner product, is off by 1.5 + M / 2 and
      its product with a root by 11 + 1.5 more, which is 14 + M / 2 over
      terms of total modulus S^2 (each 2 Re(.) stands for two); adding its
      1 + N (N + 1) / 2 terms costs N (N + 1) / 4.
    The sum, 39 + N + 1.5 M + N (N + 1) / 4, is at most 49.5 for N, M <= 3;
    64 leaves room for the second-order terms.  Where r cancels, ||r||^2 is
    far below S^2, and a margin relative to ||r||^2 would not cover this.
    """
    return (_form(C @ C.conj().T, levels, slow),
            64 * np.finfo(float).eps * np.linalg.norm(C, axis=1).sum() ** 2)


def _dual_form(coef, levels, slow, gain, lam, c):
    """The dual function f = lambda_max(S) - lam c, S = R + lam A, at one
    lam >= 0 of the profiles of the phase grid at M = 2, from four forms.
    With T = (S00 + S11) / 2 and H = (S00 - S11) / 2,

        f = T - lam c + sqrt(H^2 + (Re S01)^2 + (Im S01)^2).

    As S = sum_x s_x x x^H over the rows x = r, b, e (s = 1, lam, -lam gain),
    S_ij is the form of Q[i, j] = sum_x s_x C_x[:, i] C_x[:, j]^H, C_x the
    columns of coef that sum to x.  So T, H, Re S01 and Im S01 are the _forms
    of the Hermitian kernels (Q00 + Q11) / 2, (Q00 - Q11) / 2, (Q01 + Q10) / 2
    and (Q01 - Q10) / 2i, built as one stack; T's kernel also takes -lam c in
    its last diagonal entry, as v_N = 1.  Returns (f, delta_f), f(digits) the
    values of a head run.

    delta_f = 64 eps (2 W + lam c), W = S_r^2 + lam (S_b^2 + gain S_e^2) with
    S_x = sum_n ||C_x[n]||, bounds |f - _dual_bound of the rows|.  The square
    root is 1-Lipschitz, so |f - f'| is at most the sum of the four forms'
    differences, and delta_f is the sum of their bounds: by Cauchy-Schwarz
    each kernel entry [p, q] has modulus at most sum_x |s_x| ||C_x[p]||
    ||C_x[q]|| / 2, so each form's terms have total modulus at most W / 2,
    and T's lam c more.  Per form, to first order in units of eps over that
    total, as for _norm2_form's delta:
    - the rows: their entries give 25 + N as there; _dual_2x2's squares,
      products, scalings by gain and lam, and sums add at most 4, and the
      modulus, the hypot and the final sum 2;
    - the form: an entry of Q sums three products (1.5 each) scaled by s
      (0.5), 3 with the sums, and the kernel's sum adds 0.5, so with the
      root, its product and the 1 + N (N + 1) / 2 terms that is 17 + N (N +
      1) / 4, with the lam c entry's subtraction; the squares, the sum, the
      square root and the final sum add 2.
    The sum, 50 + N + N (N + 1) / 4, is at most 56 for N <= 3; 64 leaves room
    for the second-order terms.
    """
    C = coef.reshape(coef.shape[0], 3, 2)  # C[n, x, i]: entry i of row x = r, b, e
    s = np.array([1.0, lam, -lam * gain])
    Q = np.einsum("pxi,x,qxj->ijpq", C, s, C.conj())  # S_ij is the form of Q[i, j]
    K = 0.5 * np.stack([Q[0, 0] + Q[1, 1], Q[0, 0] - Q[1, 1],
                        Q[0, 1] + Q[1, 0], -1j * (Q[0, 1] - Q[1, 0])])
    K[0, -1, -1] -= lam * c
    form = _form(K, levels, slow)

    def f(digits):
        t, h, x, y = form(digits)
        return t + np.sqrt(h ** 2 + x ** 2 + y ** 2)

    weight = np.abs(s) @ np.linalg.norm(C, axis=2).sum(axis=0) ** 2
    return f, 64 * np.finfo(float).eps * (2.0 * weight + lam * c)


def _block(head, fast):
    """Columns head[:, i] + fast[:, j], i slowest."""
    return (head[:, :, None] + fast[:, None, :]).reshape(head.shape[0], -1)


def _roots(levels):
    return np.exp(2j * np.pi * np.arange(levels) / levels)


def _grid_profile(index, n, levels):
    """Unit-modulus profile u of grid index `index` (element 0 slowest)."""
    return _roots(levels)[np.array(np.unravel_index(index, (levels,) * n), dtype=int)]


def _outer(x):
    return x[:, :, None] * x[:, None, :].conj()


def _abs2(z):
    return z.real ** 2 + z.imag ** 2


def _dot(x, y):
    """Row-wise x^H y of two (B, M) arrays."""
    return sum(x[:, i].conj() * y[:, i] for i in range(x.shape[1]))


def _norm2(x):
    """Row-wise ||x||^2 of a (B, M) array."""
    return sum(_abs2(x[:, i]) for i in range(x.shape[1]))


def _lam_max_a(b, e, gain):
    """lambda_max(b b^H - gain e e^H) per row of b, e (B, M): on span{b, e} the
    trace is tr = ||b||^2 - gain ||e||^2 and the determinant -gain times the Gram
    determinant, summed as sum_{i<j} |b_i e_j - b_j e_i|^2 so that it does not
    cancel for nearly parallel b, e.  The larger root (>= 0, the eigenvalue off
    that span) is exact for M >= 2; at M = 1 the matrix is the scalar tr."""
    m = b.shape[1]
    tr = _norm2(b) - gain * _norm2(e)
    if m == 1:
        return tr
    gram = sum(_abs2(b[:, i] * e[:, j] - b[:, j] * e[:, i])
               for j in range(m) for i in range(j))
    return 0.5 * tr + np.sqrt(0.25 * tr ** 2 + gain * gram)


def _profile_values(r, b, e, gain, c):
    """max x^H R x s.t. x^H A x >= c, ||x|| = 1 for each row of r, b, e
    (B, M); -inf where no unit x meets the constraint.  Also returns a
    multiplier per row: where the constraint binds, the dual minimizer, else 0."""
    rr = _norm2(r)
    mrt = (rr > 0) & (_abs2(_dot(r, b)) - gain * _abs2(_dot(r, e)) >= c * rr)
    gap = _lam_max_a(b, e, gain) - c
    values, lams = np.where(mrt | (gap > 0), rr, -np.inf), np.zeros_like(rr)
    # profiles whose constraint binds; at M = 1 every unit x is a phase, so
    # a feasible profile's value is ||r||^2 even where rounding failed the MRT test
    dual = ~mrt & (gap > 0) & (r.shape[1] > 1)
    if dual.any():
        minimum = _dual_minimum_2x2 if r.shape[1] == 2 else _dual_minimum
        values[dual], lams[dual] = minimum(r[dual], b[dual], e[dual], gain, rr[dual] / gap[dual], c)
    return values, lams


def _dual_bound(r, b, e, gain, lam, c):
    """lambda_max(R + lam A) - lam c per row of r, b, e (B, M), M = 2 or 3, at a
    scalar lam or one per row: by weak duality an upper bound on the row's
    value for every lam >= 0."""
    if r.shape[1] == 2:
        return _dual_2x2_at(_dual_2x2(r, b, e, gain, c), lam)
    lam, A = np.asarray(lam), _outer(b) - gain * _outer(e)
    return np.linalg.eigvalsh(_outer(r) + lam[..., None, None] * A)[:, -1] - lam * c


def _dual_2x2(r, b, e, gain, c):
    """Coefficients (alpha, beta, h0, h1, o0, o1) of the dual function f(lam) =
    lambda_max(R + lam A) - lam c of rows r, b, e (B, 2) in closed form: with
    S = R + lam A, f = alpha + beta lam + |(h, o)|, where h = (S00 - S11)/2 =
    h0 + lam h1 and o = S01 = o0 + lam o1."""
    dr, da = _abs2(r), _abs2(b) - gain * _abs2(e)  # diagonals of R, A
    alpha, beta = 0.5 * (dr[:, 0] + dr[:, 1]), 0.5 * (da[:, 0] + da[:, 1]) - c
    h0, h1 = 0.5 * (dr[:, 0] - dr[:, 1]), 0.5 * (da[:, 0] - da[:, 1])
    o0, o1 = r[:, 0] * r[:, 1].conj(), b[:, 0] * b[:, 1].conj() - gain * e[:, 0] * e[:, 1].conj()
    return alpha, beta, h0, h1, o0, o1


def _dual_2x2_at(coeffs, lam):
    alpha, beta, h0, h1, o0, o1 = coeffs
    return alpha + beta * lam + np.hypot(h0 + lam * h1, np.abs(o0 + lam * o1))


def _dual_minimum_2x2(r, b, e, gain, hi, c):
    """min over lam in [0, hi] of lambda_max(R + lam A) - lam c in closed form,
    for R = r r^H, A = b b^H - gain e e^H and rows r, b, e (B, 2); returns the
    minimum and a minimizer.

    With f from _dual_2x2, |(h, o)|^2 = p lam^2 + 2 k lam + s.  The convex f is
    stationary, if p > 0 and beta^2 < p, at lam* = -k/p - beta sqrt(D / (p (p -
    beta^2))), where p D = p s - k^2 is the squared cross product of (h0, o0)
    and (h1, o1), free of cancellation.  Every f(lam) bounds the value from
    above: the least of f at the clipped lam*, 0 and hi is returned."""
    coeffs = _dual_2x2(r, b, e, gain, c)
    _, beta, h0, h1, o0, o1 = coeffs
    p, k = h1 ** 2 + _abs2(o1), h0 * h1 + (o0 * o1.conj()).real
    pd = (o0.conj() * o1).imag ** 2 + _abs2(h0 * o1 - h1 * o0)
    inner = (p > 0) & (beta ** 2 < p)  # else f is monotone
    p_in, q_in = np.where(inner, p, 1.0), np.where(inner, p - beta ** 2, 1.0)
    lam = np.clip(np.where(inner, -(k + beta * np.sqrt(pd / q_in)) / p_in, 0.0), 0.0, hi)
    f_lam, f_0, f_hi = (_dual_2x2_at(coeffs, x) for x in (lam, 0.0, hi))
    ends = np.minimum(f_0, f_hi)
    return (np.minimum(f_lam, ends),
            np.where(f_lam <= ends, lam, np.where(f_0 <= f_hi, 0.0, hi)))


def _dual_minimum(r, b, e, gain, hi, c):
    """min over lam in [0, hi] of _dual_bound per row of r, b, e (B, M), by
    golden-section search (the function is convex); it serves M = 3, where
    the minimizer has no closed form.  hi must bound the minimizer: ||r||^2 /
    (lambda_max(A) - c) does, as the function is at least lam (lambda_max(A) -
    c) and equals ||r||^2 at 0.  Returns the minimum and a minimizer."""
    lo = np.zeros_like(hi)
    x1, x2 = hi - INV_PHI * hi, INV_PHI * hi
    f1, f2 = (_dual_bound(r, b, e, gain, x, c) for x in (x1, x2))
    for _ in range(GOLDEN_STEPS):
        left = f1 <= f2  # a minimizer lies in [lo, x2]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x1, x2 = (np.where(left, hi - INV_PHI * (hi - lo), x2),
                  np.where(left, x1, lo + INV_PHI * (hi - lo)))
        f_new = _dual_bound(r, b, e, gain, np.where(left, x1, x2), c)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return np.minimum(f1, f2), np.where(f1 <= f2, x1, x2)


def _bisect(probe, lo, at_lo, hi, at_hi):
    """Shrink [lo, hi], where a monotone predicate turns true between lo and
    hi (true at hi), down to rounding.  probe(mid) returns the predicate at
    mid and a value that the end it replaces keeps; returns the values kept
    at the final ends."""
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        ok, at_mid = probe(mid)
        if ok:
            hi, at_hi = mid, at_mid
        else:
            lo, at_lo = mid, at_mid
    return at_lo, at_hi


def _recover_direction(r, b, e, gain, c, lam):
    """Unit x attaining the value of one feasible profile, given the
    multiplier lam that the kernel returned for it.

    MRT when it meets the constraint.  Otherwise the dual optimum lam* > 0
    is bisected on its derivative x(lam)^H A x(lam) - c, x(lam) the top
    eigenvector of R + lam A, which is nondecreasing in lam.  The bisection
    starts from the few ulps around lam when the derivative's signs at their
    ends show that they hold lam*, and else from [0, hi], hi twice the bound
    ||r||^2 / (lambda_max(A) - c), whose feasible end is A's top eigenvector
    (the limit of x(lam) as lam grows, with x^H A x = lambda_max(A) > c), so
    no eigh is taken at hi.  The end vectors of the final bracket span the
    top eigenspace at lam* (two-dimensional when eigenvalues cross there),
    and x is the point of their segment where x^H A x = c.  With the ends
    phase-aligned, x(t) = (1 - t) x_lo + t x_hi has x^H A x - c x^H x =
    a (1-t)^2 + 2 beta t (1-t) + g t^2, where a < 0 <= g are the ends'
    slacks, and its root in (0, 1] is t = -a / (beta - a + sqrt(beta^2 - a g)),
    a form that does not cancel.
    """
    R = np.outer(r, r.conj())
    A = np.outer(b, b.conj()) - gain * np.outer(e, e.conj())

    def slack(x):
        return np.vdot(x, A @ x).real - c * np.vdot(x, x).real

    def top(lam):
        x = np.linalg.eigh(R + lam * A)[1][:, -1]
        g = slack(x)
        return g >= 0, (x, g)

    rr = np.vdot(r, r).real
    mrt = r / np.sqrt(rr) if rr > 0 else r
    mrt_slack = slack(mrt)
    if rr > 0 and mrt_slack >= 0:
        return mrt
    vals_a, vecs_a = np.linalg.eigh(A)
    if rr == 0 or vals_a[-1] <= c:
        # every feasible x is optimal (r = 0), or lambda_max(A) - c is at rounding level
        return vecs_a[:, -1]
    top_a = vecs_a[:, -1], vals_a[-1] - c
    bracket = 0.0, (mrt, mrt_slack), 2.0 * rr / (vals_a[-1] - c), top_a
    if lam > 0:
        lo, hi = lam - 4.0 * np.spacing(lam), lam + 4.0 * np.spacing(lam)
        (ok_lo, at_lo), (ok_hi, at_hi) = top(lo), top(hi)
        if ok_hi and not ok_lo:
            bracket = lo, at_lo, hi, at_hi
    (x_lo, a), (x_hi, g) = _bisect(top, *bracket)
    s = np.vdot(x_hi, x_lo)
    if s != 0:
        x_hi = x_hi * (s / abs(s))  # phase-align the ends so the segment avoids 0
    beta = np.vdot(x_lo, A @ x_hi).real - c * np.vdot(x_lo, x_hi).real
    t = -a / (beta - a + np.sqrt(beta * beta - a * g))
    x = (1.0 - t) * x_lo + t * x_hi
    return x / np.linalg.norm(x)


def grid_search_joint(channels, cfg, grid):
    """Joint reference for tiny instances (N <= 3, M <= 3): the best profile
    of the phase grid, with the exactly optimal beamformer for it.

    Returns (w, u, harvested watts of that pair).  Raises
    SubproblemInfeasible when no profile of the grid can meet the secrecy
    target.
    """
    n, m = cfg.N, cfg.M
    if n > 3 or m > 3:
        raise InvalidInput("joint grid search is limited to N <= 3, M <= 3")

    gain = 2.0 ** cfg.r0
    c = (gain - 1.0) * cfg.sigma2_w / cfg.ps_w
    coef = np.concatenate([H.conj() for H in (channels.H_r, channels.H_b, channels.H_e)], axis=1)
    fast, heads, slow = _separable_rows(coef, grid.phase_levels)  # rows [r, b, e] = H^H v
    norm2, delta = _norm2_form(coef[:, :m], grid.phase_levels, slow)  # ||r||^2 per profile
    size = fast.shape[1]

    def split(rows):
        return rows[..., :m], rows[..., m:2 * m], rows[..., 2 * m:]

    def floor(value):  # below value by the rounding of a value against its bounds
        return value - SCREEN_MARGIN * abs(value)

    def dual_form(lam):  # the form screen by the dual function at lam, M = 2
        if m == 2 and lam > 0:
            return _dual_form(coef, grid.phase_levels, slow, gain, lam, c)
        return None

    # No profile is worth more than its ||r||^2 nor, for any lam >= 0, its
    # dual function at lam.  So the value of the profile of largest ||r||^2,
    # then of the best profile so far, screens the rest by both, with lam its
    # multiplier (0 where MRT wins, and then the dual function adds nothing).
    # ||r||^2 comes from the form, within delta of the rows' value, so the
    # first pass may pick another profile among ties at rounding level; the
    # rows give the exact value of the one it picks.
    top, top_rows = -np.inf, None
    for _, head, digits in heads():
        rr = norm2(digits)
        i = int(np.argmax(rr))
        if rr[i] > top:
            top, top_rows = rr[i], head[:, i // size] + fast[:, i % size]
    vals, lams = _profile_values(*split(top_rows[None]), gain, c)
    cut, lam = floor(vals[0]), lams[0]
    dual = dual_form(lam)

    best, best_index, best_rows, best_lam = -np.inf, None, None, 0.0
    for start, head, digits in heads():
        if lam > 0 and m == 3:
            block = _block(head, fast).T
            keep = (_norm2(block[:, :m]) >= cut) & (_dual_bound(*split(block), gain, lam, c) >= cut)
        else:
            keep = norm2(digits) >= cut - delta
            if dual is not None:
                f, delta_f = dual
                keep &= f(digits) >= cut - delta_f
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            continue
        rows = (head[:, idx // size] + fast[:, idx % size]).T
        vals, lams = _profile_values(*split(rows), gain, c)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_index = vals[k], start * size + idx[k]
            best_rows, best_lam = rows[k], lams[k]
        if floor(vals[k]) > cut:
            cut, lam = floor(vals[k]), lams[k]
            dual = dual_form(lam)

    if best_rows is None:
        raise SubproblemInfeasible("no profile of the phase grid meets the secrecy target")
    u = _grid_profile(best_index, n, grid.phase_levels)
    w = np.sqrt(cfg.ps_w) * _recover_direction(*split(best_rows), gain, c, best_lam)
    return w, u, harvested_power(w, u, channels, cfg.zeta)


def grid_search_phases(channels, w, cfg, levels):
    """Exhaustive phase reference for a fixed beamformer (N <= 4).

    Returns (u, value) maximizing |u^H a + alpha|^2 over the per-element phase
    grid subject to the secrecy constraint.  Raises SubproblemInfeasible when
    no profile of the grid meets it.
    """
    n = cfg.N
    if n > 4:
        raise InvalidInput("phase grid search is limited to N <= 4")
    levels = GridSpec(phase_levels=levels).phase_levels
    # conj(u)^H (H w) per receiver: the conjugate rows have the same modulus
    coef = np.stack([channels.H_r @ w, channels.H_b @ w, channels.H_e @ w]).T.conj()
    fast, heads, _ = _separable_rows(coef, levels)
    gain = 2.0 ** cfg.r0
    s2 = cfg.sigma2_w

    best, best_index = -np.inf, None
    for start, head, _ in heads():
        ar, ab, ae = _abs2(_block(head, fast))
        vals = np.where(ab + s2 >= gain * (ae + s2), ar, -np.inf)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_index = float(vals[k]), start * fast.shape[1] + k
    if best_index is None:
        raise SubproblemInfeasible("no profile of the phase grid meets the secrecy target")
    return _grid_profile(best_index, n, levels), best
