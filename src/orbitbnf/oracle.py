"""Dense-matrix ground truth on a truncated Hermite (x) Fourier basis.

Operators act on the model space spanned by states |mu, nu> with total
Hermite quantum number |mu| = sum_i mu_i <= hermite_cut (the action simplex)
and Fourier index |nu| <= fourier_cut; the ladder amplitudes carry the hbar
normalization [a, a+] = hbar, so the harmonic part has eigenvalues
(mu + 1/2) hbar exactly.  Everything here is independent of the series
machinery: eigenvalues come from LAPACK solves, one per class
of states that no matrix entry connects (the real symmetric drivers whenever
every coefficient of the operator is real, the complex Hermitian ones
otherwise), and traces from explicit weighted sums.  A class whose block at
the doubled cut has n >= 1024 states and half-bandwidth b, 32 b <= n, is
solved from its lower band at both cuts: its eigenvalues come from the banded
driver (``scipy.linalg.eigvals_banded``, O(n^2 b) instead of O(n^3)) and
its boundary masses from banded inverse iteration (LAPACK ``?gbtrf``/
``?gbtrs``), with dense ``eigh`` as the fallback for vectors that iteration
cannot certify.  Every other class is solved dense (numpy's
``eigvalsh``/``eigh``).  scipy is imported only on the banded path, so
small windows never pay its import.
The point is to have something slow and obviously correct to hold the
symbolic results against.

Truncation policy: quantities are only trusted for states well inside the
window (|mu| <= hermite_cut/2, and |nu| <= fourier_cut/2 when the
operator couples Fourier sectors), and every eigenvalue report is validated
by re-solving with the Hermite cut doubled and rejecting on drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, UnsafeWindowError
from .graded import _read_index, _read_real, require_symmetric
from .normalform import NormalForm
from .words import WordPoly, apply_to_basis, normal_form_to_word

__all__ = [
    "BasisWindow",
    "MATRIX_BUDGET",
    "assemble_matrix",
    "numeric_trace",
    "quasi_eigenvalues",
    "smooth_plateau",
]

MATRIX_BUDGET = 4096


@dataclass(frozen=True)
class BasisWindow:
    """Truncation cuts and the hbar value for one dense-matrix computation.

    The basis is the action simplex: the states ``(mu, nu)`` with total
    quantum number ``|mu| = sum_i mu_i <= hermite_cut`` and
    ``|nu| <= fourier_cut``.  The states below an energy of
    ``E + theta . p``, p_i = (mu_i + 1/2) hbar, form a simplex in mu, not a
    cube; for one mode the simplex is the interval ``mu <= hermite_cut``.
    The cuts are stored as plain ints (ValueError for a non-integer or
    negative cut: a float cut would reach range()) and hbar as a float,
    which must be finite and > 0.
    """

    hermite_cut: int
    fourier_cut: int
    hbar: float

    def __post_init__(self):
        object.__setattr__(self, "hermite_cut", _read_index(self.hermite_cut, "hermite_cut"))
        object.__setattr__(self, "fourier_cut", _read_index(self.fourier_cut, "fourier_cut"))
        object.__setattr__(self, "hbar", _read_real(self.hbar, "hbar", "> 0"))

    def dimension(self, dim: int) -> int:
        """``C(hermite_cut + dim, dim) (2 fourier_cut + 1)``, the number of
        states."""
        return math.comb(self.hermite_cut + dim, dim) * (2 * self.fourier_cut + 1)

    def states(self, dim: int) -> list:
        """Basis states as ``(mu, nu)`` tuples, Fourier-major then
        lexicographic in mu.  This is the one place the basis order is
        written; ``_index`` inverts it by dict lookup."""
        cube = itertools.product(range(self.hermite_cut + 1), repeat=dim)
        mus = [mu for mu in cube if sum(mu) <= self.hermite_cut]
        return [(mu, nu) for nu in range(-self.fourier_cut, self.fourier_cut + 1) for mu in mus]

    def doubled(self, couple_fourier: bool) -> "BasisWindow":
        fc = 2 * self.fourier_cut if couple_fourier else self.fourier_cut
        return BasisWindow(2 * self.hermite_cut, fc, self.hbar)


def _couples_fourier(a: WordPoly) -> bool:
    return any(key[2] != 0 for key in a.keys())


def _as_word(a) -> WordPoly:
    """A WordPoly as is, a NormalForm as its ``normal_form_to_word``."""
    if isinstance(a, NormalForm):
        a = normal_form_to_word(a)
    if not isinstance(a, WordPoly):
        raise TypeError(f"expected a WordPoly or NormalForm, not a {type(a).__name__}")
    return a


def _index(w: BasisWindow, dim: int) -> dict:
    """``{(mu, nu): position}`` over ``w.states(dim)``, in that order."""
    return {s: i for i, s in enumerate(w.states(dim))}


def assemble_matrix(a, w: BasisWindow) -> np.ndarray:
    """Dense matrix of a WordPoly or NormalForm on the window basis.

    Columns are exact images of basis states, each amplitude placed at the
    row that ``_index`` gives its target; a target with no row lies outside
    the window and is dropped (that is the truncation).  A NormalForm is
    assembled as its ``normal_form_to_word``, the exact diagonal
    h((mu + 1/2) hbar, nu hbar, hbar).  The result is Hermitian if the input
    is adjoint-symmetric (truncation can hide an asymmetry, so
    quasi_eigenvalues checks the word).  It is float64 when every
    coefficient is real, since each amplitude is then a real coefficient
    times real ladder factors, and complex otherwise.

    Raises ValueError if the matrix dimension exceeds MATRIX_BUDGET.
    """
    a = _as_word(a)
    n = w.dimension(a.dim)
    if n > MATRIX_BUDGET:
        raise ValueError(f"matrix dimension {n} exceeds budget {MATRIX_BUDGET}")
    real = not any(complex(c).imag for _key, c in a.items())
    index = _index(w, a.dim)
    rows, amps, cols = [], [], []
    for s, col in index.items():
        image = apply_to_basis(a, s, w.hbar)
        rows.extend([index.get(t, -1) for t in image])
        amps.extend(image.values())
        cols.extend([col] * len(image))
    rows = np.array(rows, dtype=np.int64)
    inside = rows >= 0
    vals = np.array(amps, dtype=complex)[inside]
    mat = np.zeros((n, n), dtype=float if real else complex)
    mat[rows[inside], np.array(cols, dtype=np.int64)[inside]] = vals.real if real else vals
    return mat


def _real_if_exact(arr: np.ndarray) -> np.ndarray:
    """The real part when the imaginary part is exactly zero, else arr.

    Real quadrature weights keep the trace products real.
    """
    return arr if arr.imag.any() else arr.real


def _classes(mat: np.ndarray):
    """Class label of each state, and the half-bandwidth of each class block.

    A class holds states that nonzero entries connect.  Labels are 0, 1, ...
    in the order of each class's lowest state.  Union-find over the nonzero
    entries in rounds: every entry that still joins two roots hooks the
    larger root to the smaller, then every state is pointed at its root.
    Pointers only go to smaller indices, so the rounds end and the root of a
    class is its lowest state.  Both triangles count, so a class holds every
    entry that a solver reading one triangle sees.

    The half-bandwidth of class c is the largest |i - j| of a nonzero entry
    (i, j) of its block ``mat[np.ix_(g, g)]``, g the class's states in
    ascending order (``_groups``); it comes from the same scan of entries.
    """
    rows, cols = np.nonzero(mat != 0)  # faster than np.nonzero(mat) on float64
    root = np.arange(mat.shape[0])
    while True:
        r, c = root[rows], root[cols]
        cross = r != c
        if not cross.any():
            break
        np.minimum.at(root, np.maximum(r, c)[cross], np.minimum(r, c)[cross])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    label = np.unique(root, return_inverse=True)[1]
    sizes = np.bincount(label)
    rank = np.empty_like(label)  # position of each state in its class block
    rank[np.argsort(label, kind="stable")] = np.arange(len(label)) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    band = np.zeros(len(sizes), dtype=np.int64)
    np.maximum.at(band, label[rows], np.abs(rank[rows] - rank[cols]))
    return label, band


def _groups(label: np.ndarray) -> list:
    """Positions of each label value, ascending, for the labels that occur."""
    order = np.argsort(label, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(label))[:-1])
    return [g for g in groups if len(g)]


# A class is narrow when its doubled block has at least _BANDED_MIN states
# and half-bandwidth b with _BANDED_RATIO * b <= n; a narrow class is solved
# from band storage at both cuts, every other class dense.  Below that size
# the scipy import (0.2-0.3 s, +28 MB) outweighs the dense solves (0.03 s
# at n = 621); wider bands gain little: the two-mode parity classes of the
# simplex at a doubled cut of 64 (n = 1089 and 1056, b = 128 and 126) take
# 0.18-0.27 s in the banded driver against 0.14-0.16 s dense (one BLAS
# thread), and inverse iteration costs O(n b^2) per window eigenvalue.
_BANDED_MIN = 1024
_BANDED_RATIO = 32


def _narrow(n: int, band: int) -> bool:
    """Whether a doubled class block of n states and half-bandwidth band
    takes the banded path, for its doubled and its working solve."""
    return n >= _BANDED_MIN and _BANDED_RATIO * band <= n


def _lower_band(mat: np.ndarray, states: np.ndarray, band: int) -> np.ndarray:
    """Lower band storage of the block of ``mat`` on ``states`` (ascending):
    row d holds the d-th subdiagonal, read diagonal by diagonal without
    copying the block.  ``band`` must bound the block's half-bandwidth; one
    past the block's size is cut to it."""
    n = len(states)
    band = min(band, n - 1)
    lower = np.zeros((band + 1, n), dtype=mat.dtype)
    for d in range(band + 1):
        lower[d, : n - d] = mat[states[d:], states[: n - d]]
    return lower


def _dense_from_band(lower: np.ndarray) -> np.ndarray:
    """The dense block of the lower band ``lower``, lower triangle only:
    ``eigh`` reads nothing else."""
    n = lower.shape[1]
    i = np.arange(n)
    mat = np.zeros((n, n), dtype=lower.dtype)
    for d in range(len(lower)):
        mat[i[d:], i[: n - d]] = lower[d, : n - d]
    return mat


def _doubled_eigvals(big: np.ndarray, states: np.ndarray, band: int) -> np.ndarray:
    """Ascending eigenvalues of the block of ``big`` on ``states`` (ascending),
    whose half-bandwidth is ``band``.

    A narrow block hands its lower band to the banded driver; any other
    block is copied (unless it is the whole matrix) and solved dense.
    """
    if _narrow(len(states), band):
        from scipy.linalg import eigvals_banded

        return eigvals_banded(_lower_band(big, states, band), lower=True)
    return np.linalg.eigvalsh(big if len(states) == len(big) else big[np.ix_(states, states)])


# A window eigenvector with more boundary mass than _MASS_TOL is unsafe.  A
# narrow class goes to dense eigh when a window eigenvalue lies within
# _CLUSTER_TOL of the spectrum's scale (its largest |eigenvalue|) from a
# neighbour, or an inverse-iteration residual exceeds _RESIDUAL_TOL of it.
_MASS_TOL = 1e-8
_CLUSTER_TOL = 1e-8
_RESIDUAL_TOL = 1e-12


class _Uncertified(Exception):
    """Inverse iteration could not certify an eigenvector."""


def _first_offender(vals, mass, keep):
    """The lowest window eigenvalue ``vals[i]``, i in ``keep`` (ascending),
    whose eigenvector keeps mass > _MASS_TOL beyond half the cut, as
    ``(eigenvalue, mass)``, or None.  ``mass(i)`` gives that mass; it may
    raise _Uncertified."""
    for i in keep:
        m = mass(i)
        if m > _MASS_TOL:
            return vals[i], m
    return None


def _banded_window(lower: np.ndarray, lo: float, hi: float, out: np.ndarray):
    """Window eigenvalues and first offender of a narrow working block, from
    its lower band: all eigenvalues by ``eigvals_banded``, each mass from two
    steps of inverse iteration (``?gbtrf``/``?gbtrs``) at the eigenvalue.
    Raises _Uncertified when a window eigenvalue has a neighbour within
    _CLUSTER_TOL of the scale, a shifted factor has a zero pivot, or a
    vector's residual exceeds _RESIDUAL_TOL of the scale."""
    from scipy.linalg import blas, eigvals_banded, lapack

    vals = eigvals_banded(lower, lower=True)
    keep = np.flatnonzero((vals >= lo) & (vals <= hi))
    scale = max(abs(vals[0]), abs(vals[-1]))
    gaps = np.diff(vals, prepend=-np.inf, append=np.inf)
    if (np.minimum(gaps[keep], gaps[keep + 1]) < _CLUSTER_TOL * scale).any():
        raise _Uncertified
    band, n = len(lower) - 1, lower.shape[1]
    kind = "z" if np.iscomplexobj(lower) else "d"
    gbtrf, gbtrs = getattr(lapack, kind + "gbtrf"), getattr(lapack, kind + "gbtrs")
    hbmv = blas.zhbmv if kind == "z" else blas.dsbmv
    # LAPACK's general band storage: entry (i, j) at row 2 band + i - j, under
    # ``band`` spare rows for the fill of the pivoted factor
    general = np.zeros((3 * band + 1, n), dtype=lower.dtype)
    for d in range(band + 1):
        general[2 * band + d, : n - d] = lower[d, : n - d]
        if d:
            general[2 * band - d, d:] = lower[d, : n - d].conj()
    # a fixed pseudo-random start, as LAPACK's ?stein takes: no symmetry of
    # the block can make it orthogonal to an eigenvector
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)

    def mass(i):
        shifted = general.copy()
        shifted[2 * band] -= vals[i]
        lu, piv, info = gbtrf(shifted, band, band, overwrite_ab=1)
        if info:
            raise _Uncertified
        x = start
        for _step in range(2):
            x, _info = gbtrs(lu, band, band, x, piv)
            x /= np.linalg.norm(x)
        residual = np.linalg.norm(hbmv(band, 1.0, lower, x, beta=-vals[i], y=x, lower=1))
        if not residual <= _RESIDUAL_TOL * scale:  # NaN too
            raise _Uncertified
        return float(np.sum(np.abs(x[out]) ** 2))

    return vals[keep], _first_offender(vals, mass, keep)


def _working_window(block: np.ndarray, narrow: bool, lo: float, hi: float, out):
    """Window eigenvalues of one class's working block (its lower band when
    narrow, else the dense block) and the lowest of them whose eigenvector
    keeps mass beyond half the cut, as ``(eigenvalue, mass)``, or None.  A
    narrow block that inverse iteration cannot certify is solved dense,
    exactly as a dense block would be."""
    if narrow:
        try:
            return _banded_window(block, lo, hi, out)
        except _Uncertified:
            block = _dense_from_band(block)
    vals, vecs = np.linalg.eigh(block)
    keep = np.flatnonzero((vals >= lo) & (vals <= hi))
    return vals[keep], _first_offender(
        vals, lambda i: float(np.sum(np.abs(vecs[:, i][out]) ** 2)), keep
    )


def quasi_eigenvalues(a, w: BasisWindow, window, drift_tol: float = 1e-10):
    """Sorted eigenvalues inside the energy interval ``window = (lo, hi)``.

    Safety is enforced two ways: every reported eigenvector must keep its
    probability mass on deep states (|mu| = sum_i mu_i <= hermite_cut/2, and
    |nu| <= fourier_cut/2 when the operator couples Fourier sectors), and the
    whole list must reproduce under doubling the Hermite cut (both cuts for
    Fourier-coupled operators) to within drift_tol.  For t-independent
    operators the Fourier index is exactly conserved, so the Fourier cut
    selects sectors rather than approximating them and is left alone.

    The basis is ``BasisWindow``'s action simplex, so a two-mode window of
    Hermite cut N takes C(N + 2, 2) working and C(2 N + 2, 2) doubled states
    per Fourier sector (300 and 1128 at N = 23), and two modes fit
    MATRIX_BUDGET up to N = 44.

    The matrix is assembled once, at the doubled cuts, and split into
    classes of states that no nonzero entry connects (the total-parity
    classes of an even two-mode word, the Fourier sectors of a t-independent
    one).  Each class is solved on its own: its doubled block (the matrix
    itself when there is one class), then its working block: its doubled
    states inside the working cuts, which hold the same amplitudes.  The
    doubled solves come first, and the doubled matrix is freed before the
    working solves.  The eigenvalues of all classes are merged in sorted
    order before the count and drift checks.  Each class reports its own
    lowest unsafe eigenvector, and a boundary-mass failure names the lowest
    of these (the earlier class's on a tie).

    A class whose doubled block has n >= 1024 states and half-bandwidth b,
    32 b <= n (a one-mode cubic word, b = 3, at a Hermite cut of 512 or
    more), is narrow: ``scipy.linalg.eigvals_banded`` takes its doubled
    block's lower band, and then its working block's, read from the doubled
    matrix with the same b before that is freed.  The boundary mass of each
    window eigenvector comes from two steps of inverse iteration at its
    eigenvalue (LAPACK ``?gbtrf``/``?gbtrs`` from a fixed start), in
    ascending order.  The class falls back to dense ``eigh`` on
    its block, rebuilt from the band, when a window eigenvalue has a
    neighbour within 1e-8 of the spectrum's scale (inverse iteration cannot
    separate a cluster), a shifted factor has a zero pivot, or a vector's
    residual exceeds 1e-12 of the scale.  At n = 1233 (hbar = 2^-8, one BLAS
    thread) the banded working solve takes 0.11 s against 0.43 s for dense
    ``eigh``, and its eigenvalues agree with ``eigh``'s to 1e-14 of the
    scale.  Every other class is solved by dense ``eigvalsh`` and ``eigh``,
    so smaller windows never import scipy.

    The operator must be adjoint-symmetric as a word (a NormalForm is
    checked as its ``normal_form_to_word``).  That is tested once, on the
    word, so it holds at every cut; a matrix test would miss terms that only
    the doubled cut reaches, and the eigen-solvers read one triangle only.

    Raises ValueError if the window's ends are not finite with lo < hi,
    drift_tol is not finite and > 0, the word is not adjoint-symmetric to
    1e-12 of its largest coefficient or the doubled window exceeds
    MATRIX_BUDGET, and UnsafeWindowError on boundary mass, on a count
    mismatch between the two solves, or on drift above drift_tol.
    """
    lo, hi = (_read_real(v, "window") for v in window)
    if not lo < hi:
        raise ValueError("window must be an interval (lo, hi) with lo < hi")
    drift_tol = _read_real(drift_tol, "drift_tol", "> 0")
    a = _as_word(a)
    require_symmetric(a, "quasi_eigenvalues: the operator")
    couple = _couples_fourier(a)
    wide = w.doubled(couple)
    big = assemble_matrix(a, wide)
    label, band = _classes(big)
    # The doubled solves first: each dense one copies its block, and the
    # largest of those copies is the peak of the call; the working solves'
    # temporaries come after ``big`` is freed and cannot add to it.
    groups = _groups(label)
    bvals = np.sort(np.concatenate([_doubled_eigvals(big, g, b) for g, b in zip(groups, band)]))
    # The doubled basis order restricted to the working cuts is the working
    # order, so a class's working states are its doubled states inside them,
    # and its doubled half-bandwidth bounds its working block's.
    depth, sector = np.array([(sum(mu), abs(nu)) for mu, nu in wide.states(a.dim)]).T
    inside = (depth <= w.hermite_cut) & (sector <= w.fourier_cut)
    shallow = (depth > w.hermite_cut / 2) | (couple & (sector > w.fourier_cut / 2))
    blocks = []
    for g, b in zip(groups, band):
        narrow = _narrow(len(g), b)
        g = g[inside[g]]
        if len(g):
            block = _lower_band(big, g, b) if narrow else big[np.ix_(g, g)]
            blocks.append((block, narrow, shallow[g]))
    del big

    solved = [_working_window(block, narrow, lo, hi, out) for block, narrow, out in blocks]
    offenders = [offender for _vals, offender in solved if offender is not None]
    if offenders:
        # the lowest eigenvalue; min keeps the earlier class on a tie
        worst = min(offenders, key=lambda o: o[0])
        raise UnsafeWindowError(
            f"eigenvalue {worst[0]:.6g} keeps mass {worst[1]:.2e} on states "
            "beyond half the cut; enlarge the window cuts"
        )

    mine = np.sort(np.concatenate([vals for vals, _offender in solved]))
    bkeep = bvals[(bvals >= lo) & (bvals <= hi)]
    if len(bkeep) != len(mine):
        raise UnsafeWindowError(
            f"window holds {len(mine)} eigenvalues at the working cut but "
            f"{len(bkeep)} at the doubled cut; the window is not "
            "truncation-safe"
        )
    drift = float(np.max(np.abs(mine - bkeep))) if len(mine) else 0.0
    if drift > drift_tol:
        raise UnsafeWindowError(
            f"eigenvalue drift {drift:.3e} under cut doubling exceeds "
            f"{drift_tol:.1e}"
        )
    return [float(v) for v in mine]


# -- numeric traces -----------------------------------------------------------------


def smooth_plateau(p: float, p1: float, p2: float) -> float:
    """C-infinity cutoff: 1 on (-inf, p1], 0 on [p2, inf), monotone between.

    Built from g(u) = exp(-1/u): rho = g(1-u) / (g(u) + g(1-u)) with
    u = (p - p1)/(p2 - p1).  Smoothness is load-bearing: a merely polynomial
    cutoff leaves boundary oscillations that pollute the trace sums at fixed
    powers of hbar, while this one contributes beyond all orders.
    ValueError unless p, p1 and p2 are finite and p1 < p2.
    """
    p, p1, p2 = _read_real(p, "p"), _read_real(p1, "p1"), _read_real(p2, "p2")
    if not p1 < p2:
        raise ValueError("need p1 < p2")
    if p <= p1:
        return 1.0
    if p >= p2:
        return 0.0
    u = (p - p1) / (p2 - p1)

    def g(v):
        return math.exp(-1.0 / v) if v > 0 else 0.0

    return g(1.0 - u) / (g(u) + g(1.0 - u))


_SPLIT = 64  # fine nodes per coarse node in the split-angle trapezoid rule


def _phi_quadrature(bump, xs: np.ndarray, points_per_width: int) -> np.ndarray:
    """phi(x) = (1/2 pi) integral phi_hat(t) e^{i t x} dt by the trapezoid rule.

    The nodes cover the bump's quadrature window; with a smooth integrand
    that vanishes at both ends the rule is spectrally accurate, and the
    aliasing images sit at |x| ~ 2 pi / step, far outside any state that
    passes the coverage check.

    The nodes are uniform, so with j = B q + r the phase splits as
    e^{i t_j x} = e^{i t_{Bq} x} e^{i r dt x}: per x, B fine and ceil(n/B)
    coarse phases replace n full ones.  The fine phases are the powers of
    one exponential e^{i dt x}, formed by a running product; the coarse
    phases are direct exponentials (a running product over them would
    carry its rounding across the whole window).  The fine phases are
    contracted with the weights, zero-padded to a (ceil(n/B), B) table, in
    one product, and the coarse phases finish the sum.
    """
    t0, t1, n = bump.quadrature_window(points_per_width)
    ts = np.linspace(t0, t1, n)
    dt = ts[1] - ts[0]
    # trapezoid weights times phi_hat, with the 1/2 pi of the inverse transform
    wts = np.array([bump.phi_hat(t) for t in ts], dtype=complex)
    wts *= dt / (2.0 * math.pi)
    wts[[0, -1]] *= 0.5
    # a real phi_hat keeps a real table: the product then multiplies complex
    # phases by real weights; complex weights work unchanged
    wts = _real_if_exact(wts)
    rows = -(-n // _SPLIT)
    table = np.zeros(rows * _SPLIT, dtype=wts.dtype)
    table[:n] = wts
    table = table.reshape(rows, _SPLIT).T
    coarse = ts[::_SPLIT]
    out = np.empty(len(xs), dtype=complex)
    chunk = 2048
    for i in range(0, len(xs), chunk):
        x = xs[i : i + chunk]
        fine = np.empty((len(x), _SPLIT), dtype=complex)
        fine[:, 0] = 1.0
        fine[:, 1:] = np.exp(1j * dt * x)[:, None]
        np.cumprod(fine, axis=1, out=fine)
        inner = fine @ table
        out[i : i + chunk] = np.einsum("ij,ij->i", np.exp(1j * np.outer(x, coarse)), inner)
    return out


def numeric_trace(
    spectrum,
    E: float,
    hbar: float,
    bump,
    weights=None,
    floor=None,
    points_per_width: int = 64,
) -> complex:
    """Weighted trace sum_k w_k phi((lambda_k - E)/hbar) by quadrature.

    phi is reconstructed from bump.phi_hat with the trapezoid rule on
    bump.quadrature_window(points_per_width) — deliberately not the closed
    form, so this side of any comparison stays independent.  Passing a
    ``floor`` declares that the spectrum is meant to be complete down to that
    contribution size: the extreme supplied energies must then contribute
    below it (weights included), and CoverageError reports a sum that is
    visibly missing states.  With floor=None the caller vouches for coverage.
    ValueError, before any arithmetic, unless hbar is finite and > 0, E,
    every level and every weight are finite (a NaN level would pass the
    floor test), floor is None or finite and >= 0 (a NaN floor would pass
    every sum) and points_per_width is an integer >= 1.
    """
    hbar = _read_real(hbar, "hbar", "> 0")
    E = _read_real(E, "E")
    if floor is not None:
        floor = _read_real(floor, "floor", ">= 0")
    points = _read_index(points_per_width, "points_per_width", least=1)
    lam = np.asarray(list(spectrum), dtype=float)
    if weights is None:
        wts = np.ones(lam.size)
    else:
        wts = np.asarray(list(weights), dtype=float)
        if wts.shape != lam.shape:
            raise ValueError("weights must match the spectrum in length")
    if not (np.isfinite(lam).all() and np.isfinite(wts).all()):
        raise ValueError("levels and weights must be finite")
    if lam.size == 0:
        return 0.0 + 0.0j
    xs = (lam - E) / hbar
    phis = _phi_quadrature(bump, xs, points)
    contrib = wts * phis
    if floor is not None:
        order = np.argsort(xs)
        edge = min(5, lam.size)
        boundary = np.concatenate([order[:edge], order[-edge:]])
        worst = float(np.max(np.abs(contrib[boundary])))
        if worst > floor:
            raise CoverageError(
                f"boundary states contribute {worst:.3e} > floor {floor:.1e}; "
                "the supplied spectrum does not cover the bump"
            )
    return complex(np.sum(contrib))
