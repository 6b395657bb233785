"""Independent numpy oracles behind the benchmark's correctness checks.

Every operator the workloads build is re-implemented here on stacks of
points, (k, n) -> (k, n), and every norm row-wise, so a claim's floats are
checked against arithmetic that shares no code path with fpcert.  Slacks are
compared within RTOL of the magnitude of the terms that form them, which lets
a batched kernel that only moves the last ULPs pass.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance on slacks, quotients and fitted constants, measured
# against the size of the terms; double rounding sits near 1e-15.
RTOL = 1e-8
# Spectral constants from power iteration stop on a relative change of
# 1e-10 between sweeps, which bounds the error only loosely.
SPECTRAL_RTOL = 1e-6
CUTOFF = 1e-14  # fpcert.certify.DENOMINATOR_CUTOFF, restated
DEFAULT_TOL = 1e-10  # fpcert.certify.DEFAULT_TOL, restated
DEFAULT_SCALES = (0.1, 1.0, 10.0, 1e3)  # fpcert.SamplingPlan().radius_scales


def sample_pairs(seed, n_pairs, scales, dim, hint=None):
    """The pairs a sampling plan documents, drawn here from its seed.

    n_pairs Gaussian pairs around the hint (or the origin) at every scale,
    then, with a hint, max(1, n_pairs // 10) pairs straddling it at every
    scale.  Redrawing them pins the work a claim must do.
    """
    rng = np.random.default_rng(seed)
    center = np.zeros(dim) if hint is None else hint
    xs, ys = [], []
    for scale in scales:
        xs.append(center + scale * rng.standard_normal((n_pairs, dim)))
        ys.append(center + scale * rng.standard_normal((n_pairs, dim)))
    if hint is not None:
        k = max(1, n_pairs // 10)
        for scale in scales:
            xs.append(hint + scale * rng.standard_normal((k, dim)))
            ys.append(hint - scale * rng.standard_normal((k, dim)))
    return np.vstack(xs), np.vstack(ys)


def sample_points(seed, n_pairs, scales, dim, hint):
    """The single points of a plan, n_pairs per scale around the hint."""
    rng = np.random.default_rng(seed)
    return np.vstack([hint + scale * rng.standard_normal((n_pairs, dim))
                      for scale in scales])


def soft(t, x):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def block(t, x):
    nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(nrm > t, 1.0 - t / np.maximum(nrm, t + 1e-300), 0.0) * x


def apply(spec, x):
    """Apply an operator spec to a stack of row vectors."""
    kind = spec[0]
    if kind == "soft":
        return soft(spec[1], x)
    if kind == "block":
        return block(spec[1], x)
    if kind == "affine":
        _, alpha, z = spec
        return alpha * x + z
    if kind == "grad":
        _, a, b, beta = spec
        return x - beta * ((x @ a.T - b) @ a)
    if kind == "fb":
        _, a, b, beta, lam = spec
        return soft(beta * lam, x - beta * ((x @ a.T - b) @ a))
    if kind == "sep":
        _, c, b, beta, lam = spec
        return soft(beta * lam, x - beta * c * (x - b))
    if kind == "pd":
        _, a, b, bm, lam, beta, eta = spec
        n = a.shape[1]
        p, d = x[:, :n], x[:, n:]
        p_new = p - beta * ((p @ a.T - b) @ a + d @ bm)
        shifted = d / eta + (2.0 * p_new - p) @ bm.T
        d_new = eta * (shifted - soft(lam / eta, shifted))
        return np.hstack([p_new, d_new])
    raise ValueError(f"unknown operator spec {kind!r}")


def norms(v, kind, weight=None):
    """Row-wise norms; the weighted norm is sqrt(v W v^T) from W itself."""
    if kind == "l2":
        return np.sqrt(np.sum(v * v, axis=1))
    if kind == "l1":
        return np.sum(np.abs(v), axis=1)
    if kind == "w":
        return np.sqrt(np.maximum(np.sum((v @ weight) * v, axis=1), 0.0))
    raise ValueError(f"unknown norm {kind!r}")


def pair_triples(spec, xs, ys, kind, weight=None):
    """(|x-y|, |Tx-Ty|, |(I-T)x-(I-T)y|) for every sampled pair."""
    tx, ty = apply(spec, xs), apply(spec, ys)
    return (norms(xs - ys, kind, weight), norms(tx - ty, kind, weight),
            norms((xs - tx) - (ys - ty), kind, weight))


def gan_slacks(d, a, b, gamma, mu):
    return d**gamma - a**gamma - mu * b**gamma, d**gamma + a**gamma + mu * b**gamma


def slacks(spec, prop, params, xs, ys, kind, weight=None):
    """Slack and term magnitude of `prop` at each pair, as fpcert defines it.

    For the point properties ``ys`` holds the fixed point in every row; points
    within CUTOFF of it are dropped, as fpcert drops them.
    """
    gamma, mu, rho = params.get("gamma"), params.get("mu"), params.get("rho")
    if prop in ("fp_contractive", "holder_regular"):
        dist = norms(xs - ys, kind, weight)
        keep = dist > CUTOFF
        xs, ys, dist = xs[keep], ys[keep], dist[keep]
        tx = apply(spec, xs)
        if prop == "fp_contractive":
            a = norms(tx - ys, kind, weight)
            return rho * dist - a, rho * dist + a
        r = mu * norms(xs - tx, kind, weight) ** gamma
        return r - dist, r + dist
    d, a, b = pair_triples(spec, xs, ys, kind, weight)
    if prop == "gan":
        return gan_slacks(d, a, b, gamma, mu)
    if prop == "nonexpansive":
        return d - a, d + a
    if prop == "contractive":
        return rho * d - a, rho * d + a
    raise ValueError(f"unknown property {prop!r}")


def close(value, expected, scale):
    return abs(value - expected) <= RTOL * abs(scale) + 1e-300


def rel_close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


def estimate_mu(spec, gamma, xs, ys, kind, weight=None):
    d, a, b = pair_triples(spec, xs, ys, kind, weight)
    denom = b**gamma
    ok = denom > CUTOFF
    q = (d[ok] ** gamma - a[ok] ** gamma) / denom[ok]
    low = float(np.min(q))
    return (0.0 if low <= 0.0 else low), float(np.max(np.abs(q)))


def fp_ratio(spec, pts, hint, kind, weight=None):
    dist = norms(pts - hint, kind, weight)
    keep = dist > CUTOFF
    ratio = norms(apply(spec, pts[keep]) - hint, kind, weight) / dist[keep]
    return float(np.max(ratio))


def min_gamma(spec, mu, xs, ys, kind, weight=None, bracket=(0.1, 2.0),
              width=1e-3, tol=DEFAULT_TOL):
    """The bisection of fpcert.estimate_min_gamma, over triples computed once."""
    d, a, b = pair_triples(spec, xs, ys, kind, weight)

    def passes(g):
        return float(np.min(gan_slacks(d, a, b, g, mu)[0])) >= -tol

    lo, hi = bracket
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def lipschitz(a):
    """Largest eigenvalue of A^T A from a symmetric eigensolver."""
    return float(np.linalg.eigvalsh(a.T @ a)[-1])


def sigma_max(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def primal_dual_steps(a, bm):
    """Default (beta, eta) of fpcert.default_step_sizes, from SVD constants."""
    lip = sigma_max(a) ** 2
    beta = 1.0 / lip
    b_norm = sigma_max(bm)
    gap = 2.0 - beta * lip
    return beta, 0.5 * (2.0 * gap / (4.0 * beta * b_norm**2 + lip * gap))


def primal_dual_weight(a, bm, beta, eta):
    m, n = bm.shape
    w = np.zeros((n + m, n + m))
    w[:n, :n] = np.eye(n) / beta
    w[n:, n:] = np.eye(m) / eta
    w[:n, n:] = -bm.T
    w[n:, :n] = -bm
    return w


def region_mask(x, xhat, gamma, mu, bounds, resolution):
    """Membership of each cell centre, and a flag for cells too near the
    boundary for the comparison to be decided by rounding."""
    lo1, hi1, lo2, hi2 = bounds
    c1 = lo1 + (np.arange(resolution) + 0.5) * (hi1 - lo1) / resolution
    c2 = lo2 + (np.arange(resolution) + 0.5) * (hi2 - lo2) / resolution
    y1, y2 = np.meshgrid(c1, c2)
    lhs = np.hypot(y1 - xhat[0], y2 - xhat[1]) ** gamma + mu * np.hypot(
        y1 - x[0], y2 - x[1]) ** gamma
    rhs = np.hypot(x[0] - xhat[0], x[1] - xhat[1]) ** gamma
    return lhs <= rhs, np.abs(lhs - rhs) <= 1e-9 * (lhs + rhs)
