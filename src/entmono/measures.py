"""Bipartite entanglement measures for small qubit systems.

Concurrence of a pure state across a cut A|B is sqrt(2 * (1 - Tr rho_A^2)).
For two-qubit mixed states the closed form is

    C(rho) = max(0, mu_0 - mu_1 - mu_2 - mu_3)

with mu_i the decreasing square roots of the eigenvalues of
M = rho (sy x sy) rho* (sy x sy). The exact path, _wootters_residual,
takes them from one eigh and one svd per matrix. A cheap screen skips that
path on matrices it proves separable, which are most pair reductions of
Haar states from about 7 qubits up. With T = tr M = sum mu_i^2 and
Q = tr M^2 = sum mu_i^4, Samuelson's inequality (none of four values lies
more than sqrt(3) standard deviations above their mean) and mu_0^2 <= T
give

    mu_0^2 <= u^2 = min(T, T/4 + sqrt(3/4 (Q - T^2/4))),

and mu_1 + mu_2 + mu_3 >= sqrt(mu_1^2 + mu_2^2 + mu_3^2) = sqrt(T - mu_0^2),
so mu_0 - mu_1 - mu_2 - mu_3 <= mu_0 - sqrt(T - mu_0^2) <= u - sqrt(T - u^2),
since the middle term rises with mu_0. Where this bound is below
-SCREEN_MARGIN (1e-3), the concurrence is 0.0 and the exact path is not
run; it runs on the other matrices alone, so every value keeps the exact
path's bits. The margin covers how far the exact path's 1e-14 * lambda_max
eigenvalue floor can move its residual (about 2e-6), and the rounding of
the bound itself, about 1e-8 where T - u^2 or Q - T^2/4 cancels.

Entanglement of formation is reported in bits; on a 2 x d cut of a pure
state, and on two-qubit mixed states, it equals h((1 + sqrt(1 - C^2)) / 2)
where h is the binary entropy.

Both entropies sum x * log(x) terms, and _xlogx takes each log from libm
(math.log) one element at a time, as scipy.special.xlogy does. numpy's
np.log dispatches to its own SIMD kernels, which are 1 ulp off libm on
about 0.3 % of inputs in (0, 1) and about 1 % near 1 (AVX-512); they would
move the last digit of recorded outputs, and which inputs move depends on
the CPU.

convex_roof_upper_bound is a randomized decomposition search used as an
independent oracle against the closed forms. It only ever overestimates
the convex roof, so oracle >= closed form up to roundoff. It draws trials
in order, ROOF_CHUNK (a multiple of 3) at a time, so its memory is bounded,
and scores the trials of a chunk that mix rank + t % 3 columns as one batch.
"""

import math

import numpy as np

from .linalg import _finite, _whole, as_density_matrix, reduced_state

_DOMAIN_ATOL = 1e-10

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_PAULI_Y, _PAULI_Y).real  # real symmetric, squares to identity
# (sy x sy) rho* (sy x sy) is rho* reversed on both axes, times these signs
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
# how far below zero the bound must lie before a matrix skips the exact path
SCREEN_MARGIN = 1e-3
ROOF_CHUNK = 3 * 512  # trials per batch of convex_roof_upper_bound (see above)


def _xlogx(x) -> np.ndarray:
    """x * log(x) of each element, with libm's log (see the module docstring); 0.0 at 0 and 1."""
    flat = [v * math.log(v) if v != 0.0 and v != 1.0 else 0.0 for v in np.ravel(x).tolist()]
    return np.array(flat).reshape(np.shape(x))


def _binary_entropy(p):
    h = -(_xlogx(p) + _xlogx(1.0 - p)) / np.log(2.0)
    return h + 0.0  # flush -0.0 at the endpoints


def _eof(x) -> np.ndarray:
    """h((1 + sqrt(1 - x)) / 2) of trusted x >= 0; min(x, 1) repairs rounding such as 1 + 2e-16."""
    return _binary_entropy((1.0 + np.sqrt(1.0 - np.minimum(x, 1.0))) / 2.0)


def eof_from_squared_concurrence(x):
    """Entanglement of formation from squared concurrence.

    Computes h((1 + sqrt(1 - x)) / 2), the exact relation for two-qubit
    mixed states and 2 x d pure cuts. Accepts scalars or arrays in [0, 1];
    values up to _DOMAIN_ATOL outside it are clipped, and others raise.
    """
    arr = _finite("squared concurrence", x)
    if not np.all((arr >= -_DOMAIN_ATOL) & (arr <= 1.0 + _DOMAIN_ATOL)):
        raise ValueError("squared concurrence outside [0, 1] beyond tolerance")
    h = _eof(np.clip(arr, 0.0, 1.0))
    return float(h) if np.ndim(x) == 0 else h


def _entropy(rho) -> np.ndarray:
    """Von Neumann entropies in bits of trusted Hermitian matrices stacked (S, d, d)."""
    lam = np.clip(np.linalg.eigvalsh(rho)[..., ::-1], 0.0, 1.0)
    return -_xlogx(lam).sum(axis=-1) / np.log(2.0) + 0.0


def _purity_concurrence(rho_a) -> np.ndarray:
    """sqrt(2 * (1 - Tr rho_A^2)) for trusted reduced states stacked (S, d, d)."""
    purity = np.minimum(1.0, np.trace(rho_a @ rho_a, axis1=-2, axis2=-1).real)
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))


def concurrence_pure(psi, cut) -> float:
    """Concurrence of a pure state across a bipartition.

    ``cut`` is the side-A position tuple; side B is its complement. The
    value is sqrt(2 * (1 - Tr rho_A^2)) and exceeds 1 only on cuts whose
    smaller side has more than one qubit.
    """
    return float(_purity_concurrence(reduced_state(psi, cut)[None])[0])


def eof_pure(psi, cut) -> float:
    """Entanglement of formation of a pure state across a bipartition, in bits."""
    return float(_entropy(reduced_state(psi, cut)[None])[0])


def _separability_bound(rho) -> np.ndarray:
    """Upper bounds on mu_0 - mu_1 - mu_2 - mu_3 of trusted matrices stacked (..., 4, 4).

    The module docstring derives the bound from tr M and tr M^2.
    """
    flipped = _FLIP_SIGNS * rho[..., ::-1, ::-1].conj()
    m = rho @ flipped
    # rounding can leave tr M, and Q - T^2/4, a little below their true value 0
    t = np.maximum(0.0, np.einsum("...ii->...", m).real)
    q = np.einsum("...ij,...ji->...", m, m).real
    u2 = np.minimum(t, t / 4.0 + np.sqrt(np.maximum(0.0, 0.75 * (q - t * t / 4.0))))
    return np.sqrt(u2) - np.sqrt(t - u2)


def _wootters_residual(rho) -> np.ndarray:
    """mu_0 - mu_1 - mu_2 - mu_3 of trusted matrices stacked (..., 4, 4): the exact path."""
    lam, vec = np.linalg.eigh(rho)
    # a rank-deficient reduction has rounding-level eigenvalues (about 1e-17),
    # whose square roots (about 3e-9) would enter the singular values below
    lam = np.where(lam > 1e-14 * lam[..., -1:], lam, 0.0)
    cols = vec * np.sqrt(lam)[..., None, :]
    # singular values of this symmetric matrix equal the sqrt-eigenvalues of
    # rho (sy x sy) rho* (sy x sy); the svd route keeps them real and sorted
    mu = np.linalg.svd(cols.swapaxes(-1, -2) @ _SPIN_FLIP @ cols, compute_uv=False)
    return mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3]


def _wootters(rho) -> np.ndarray:
    """Wootters concurrences of trusted two-qubit density matrices stacked (..., 4, 4).

    Matrices that _separability_bound proves separable get 0.0 without an
    eigensolve; the others take the exact path, _wootters_residual.
    """
    exact = ~(_separability_bound(rho) < -SCREEN_MARGIN)
    c = np.zeros(exact.shape)
    if exact.any():  # on an empty stack the eigh and svd calls still cost about 20 us
        c[exact] = np.maximum(0.0, _wootters_residual(rho[exact]))
    return c


def _two_qubit_density(rho, caller: str) -> np.ndarray:
    m = as_density_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError(f"{caller} requires a 4x4 density matrix")
    return m


def wootters_concurrence(rho) -> float:
    """Closed-form concurrence of a two-qubit density matrix."""
    return float(_wootters(_two_qubit_density(rho, "wootters_concurrence")[None])[0])


def eof_two_qubit_mixed(rho) -> float:
    """Entanglement of formation of a two-qubit density matrix, in bits."""
    c = wootters_concurrence(rho)
    return float(_eof(c * c))


def _decomposition_average(pieces: np.ndarray, measure: str) -> np.ndarray:
    """Weighted averages of a measure over unnormalised decompositions stacked (K, 4, r)."""
    weights = (np.abs(pieces) ** 2).sum(axis=-2)
    # for an unnormalised piece, weight * C(piece / norm) = cross as is
    cross = 2.0 * np.abs(pieces[:, 0] * pieces[:, 3] - pieces[:, 1] * pieces[:, 2])
    if measure == "concurrence":
        return cross.sum(axis=-1)
    # a piece of weight <= 1e-300 gets c2 = 0, so its term is an exact zero
    ratio = np.divide(cross, weights, out=np.zeros_like(weights), where=weights > 1e-300)
    return (weights * _eof(ratio ** 2)).sum(axis=-1)


def convex_roof_upper_bound(rho, measure: str = "concurrence",
                            trials: int = 500, seed: int = 0) -> float:
    """Randomized decomposition search for a two-qubit convex-roof measure.

    Mixes the spectral decomposition of ``rho`` through Haar-random
    unitaries with rank up to rank+2 columns and returns the smallest
    decomposition average found. The result is an upper bound on the true
    convex roof, so it can only exceed the closed-form value.

    ``measure`` selects the pure-state measure: "concurrence" or "eof".
    """
    if measure not in ("concurrence", "eof"):
        raise ValueError(f"unknown measure {measure!r}")
    trials, seed = _whole("trials", trials, 1), _whole("seed", seed, 0)
    m = _two_qubit_density(rho, "convex_roof_upper_bound")
    lam, vec = np.linalg.eigh(m)
    lam = np.clip(lam, 0.0, None)
    rank = max(1, int((lam > 1e-12).sum()))
    cols = (vec * np.sqrt(lam))[:, -rank:]
    best = _decomposition_average(cols[None], measure)[0]  # the spectral decomposition itself
    rng = np.random.default_rng(seed)
    widths = [2 * (rank + extra) ** 2 for extra in range(3)]  # normals per trial
    for start in range(0, trials, ROOF_CHUNK):
        count = min(ROOF_CHUNK, trials - start)
        # row j holds the normals of trials 3j, 3j+1, 3j+2 in stream order; a
        # last partial row draws normals that no trial scores
        draws = rng.standard_normal((-(-count // 3), sum(widths)))
        for extra, z in enumerate(np.split(draws, np.cumsum(widths[:2]), axis=1)):
            z = z[:len(range(extra, count, 3))].reshape(-1, 2, rank + extra, rank + extra)
            q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
            # QR alone is not Haar; fixing the phases of r's diagonal makes it so
            d = np.diagonal(r, axis1=-2, axis2=-1)
            mixers = (q * (d / np.abs(d))[:, None, :])[..., :rank].swapaxes(-1, -2)
            best = np.min(_decomposition_average(cols @ mixers, measure), initial=best)
    return float(best)
