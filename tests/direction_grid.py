"""Direction-grid references for the beamformer: a cross-check on small
grids for the exact-in-w oracle and for the SDR's rank-one W step.

The beamformer is restricted to the span of the three effective channel
vectors (objective and constraints see w only through those inner products
and its norm), and span coefficients are gridded through generalized
spherical angles modulo the irrelevant global phase.
"""

import numpy as np

from irs_swipt.errors import InvalidInput, SubproblemInfeasible

CHUNK = 2048  # profiles per (profiles, directions, powers) block


def phase_chunks(n, levels, chunk=CHUNK):
    """Yield the full levels**n unit-modulus grid in blocks of rows U, in
    mixed-radix candidate order (element 0 varies slowest)."""
    total = levels ** n
    roots = np.exp(2j * np.pi * np.arange(levels) / levels)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = np.empty((idx.size, n), dtype=int)
        rem = idx
        for j in range(n - 1, -1, -1):
            digits[:, j] = rem % levels
            rem = rem // levels
        yield roots[digits] if n else np.zeros((idx.size, 0), dtype=complex)


def unit_directions(rank, count):
    """Roughly `count` unit coefficient vectors covering the complex
    rank-sphere modulo a global phase (first coordinate real nonnegative)."""
    if rank == 1:
        return np.ones((1, 1), dtype=complex)
    if rank == 2:
        n_psi = max(2, int(np.sqrt(count / 2.0)))
        n_phi = max(4, 2 * n_psi)
        psi = np.linspace(0.0, np.pi / 2.0, n_psi)
        phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        pp, ff = np.meshgrid(psi, phi, indexing="ij")
        return np.stack([np.cos(pp).ravel(),
                         np.sin(pp).ravel() * np.exp(1j * ff.ravel())], axis=1)
    if rank == 3:
        n = max(2, int(round((count / 4.0) ** 0.25)))
        n_phi = 2 * n
        psi1 = np.linspace(0.0, np.pi / 2.0, n)
        psi2 = np.linspace(0.0, np.pi / 2.0, n)
        phi1 = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        phi2 = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        a, b, c, d = np.meshgrid(psi1, psi2, phi1, phi2, indexing="ij")
        a, b, c, d = (x.ravel() for x in (a, b, c, d))
        return np.stack([np.cos(a),
                         np.sin(a) * np.cos(b) * np.exp(1j * c),
                         np.sin(a) * np.sin(b) * np.exp(1j * d)], axis=1)
    raise InvalidInput("direction rank must be <= 3")


def direction_grid_search(channels, cfg, grid):
    """Best (w, u, harvested watts) over the phase grid of `grid` times
    about grid.subspace_points span directions times grid.power_levels
    powers up to the budget; raises SubproblemInfeasible when no candidate
    meets the secrecy target."""
    dirs = unit_directions(min(cfg.M, 3), grid.subspace_points)
    powers = cfg.ps_w * np.arange(1, grid.power_levels + 1) / grid.power_levels
    gain = 2.0 ** cfg.r0
    s2 = cfg.sigma2_w
    best = (-np.inf, None, None)  # value, w, u

    for U in phase_chunks(cfg.N, grid.phase_levels):
        V = np.concatenate([U, np.ones((U.shape[0], 1))], axis=1)
        rows = [V.conj() @ H for H in (channels.H_r, channels.H_b, channels.H_e)]
        span = np.stack([r.conj() for r in rows], axis=2)  # (B, M, 3)
        q = np.linalg.qr(span)[0][:, :, :dirs.shape[1]]    # (B, M, rank)
        amps = [np.einsum("bm,bmr->br", r, q) @ dirs.T for r in rows]  # (B, K)
        vr, vb, ve = (np.abs(a) ** 2 for a in amps)
        # (B, K, P): power scaling and the secrecy feasibility mask
        obj = cfg.zeta * vr[:, :, None] * powers[None, None, :]
        feas = (vb[:, :, None] * powers + s2) >= gain * (ve[:, :, None] * powers + s2)
        flat = np.where(feas, obj, -np.inf).reshape(obj.shape[0], -1)
        arg = np.argmax(flat, axis=1)
        vals = flat[np.arange(flat.shape[0]), arg]
        b = int(np.argmax(vals))
        if vals[b] > best[0]:
            k, p = divmod(int(arg[b]), grid.power_levels)
            best = (float(vals[b]), np.sqrt(powers[p]) * (q[b] @ dirs[k]), U[b].copy())

    if best[1] is None:
        raise SubproblemInfeasible("no candidate of the direction grid meets the secrecy target")
    return best[1], best[2], best[0]
