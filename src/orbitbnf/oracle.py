"""Dense-matrix ground truth on a truncated Hermite (x) Fourier basis.

Operators act on the model space spanned by states |mu, nu> with Hermite
indices mu_i <= hermite_cut and Fourier index |nu| <= fourier_cut; the ladder
amplitudes carry the hbar normalization [a, a+] = hbar, so the harmonic part
has eigenvalues (mu + 1/2) hbar exactly.  Everything here is independent of
the series machinery: eigenvalues come from dense solves (LAPACK's real
symmetric driver whenever every coefficient of the operator is real, the
complex Hermitian one otherwise), traces from explicit weighted sums, and the
coherent-state identities from finite basis expansions.  The point is to
have something slow and obviously correct to hold the symbolic results
against.

Truncation policy: quantities are only trusted for states well inside the
window (all mu_i <= hermite_cut/2, and |nu| <= fourier_cut/2 when the
operator couples Fourier sectors), and every eigenvalue report is validated
by re-solving with the Hermite cut doubled and rejecting on drift.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, UnsafeWindowError
from .normalform import NormalForm
from .words import BasisState, WordPoly, apply_to_basis, normal_form_to_word, require_symmetric

__all__ = [
    "BasisWindow",
    "MATRIX_BUDGET",
    "assemble_matrix",
    "coherent_state_checks",
    "model_trace",
    "numeric_trace",
    "quasi_eigenvalues",
    "render_check_report",
    "smooth_plateau",
    "wick_symbol_numeric",
]

MATRIX_BUDGET = 4096


@dataclass(frozen=True)
class BasisWindow:
    """Truncation cuts and the hbar value for one dense-matrix computation."""

    hermite_cut: int
    fourier_cut: int
    hbar: float

    def __post_init__(self):
        if self.hermite_cut < 0 or self.fourier_cut < 0:
            raise ValueError("cuts must be >= 0")
        if not self.hbar > 0:
            raise ValueError("hbar must be > 0")

    def dimension(self, dim: int) -> int:
        return (self.hermite_cut + 1) ** dim * (2 * self.fourier_cut + 1)

    def states(self, dim: int) -> list:
        """Basis states, Fourier-major then lexicographic in mu."""
        mus = list(itertools.product(range(self.hermite_cut + 1), repeat=dim))
        out = []
        for nu in range(-self.fourier_cut, self.fourier_cut + 1):
            out.extend(BasisState(mu, nu) for mu in mus)
        return out

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


def assemble_matrix(a, w: BasisWindow) -> np.ndarray:
    """Dense matrix of a WordPoly or NormalForm on the window basis.

    Columns are exact images of basis states (amplitudes that land outside
    the window are dropped; that is the truncation).  A NormalForm is
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
    states = w.states(a.dim)
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((n, n), dtype=float if real else complex)
    for col, s in enumerate(states):
        for target, amp in apply_to_basis(a, s, w.hbar).items():
            row = index.get(target)
            if row is not None:
                mat[row, col] = amp.real if real else amp
    return mat


def _real_if_exact(arr: np.ndarray) -> np.ndarray:
    """The real part when the imaginary part is exactly zero, else arr.

    Real quadrature weights keep the trace products real.
    """
    return arr if arr.imag.any() else arr.real


def _block_index(w: BasisWindow, wide: BasisWindow, dim: int) -> np.ndarray:
    """Positions of w's states, in w's order, in the basis of the wider window.

    Entries between two states of w are the same apply_to_basis amplitudes
    in either window, so ``assemble_matrix(a, wide)[np.ix_(idx, idx)]`` is
    exactly ``assemble_matrix(a, w)``.
    """
    position = {s: i for i, s in enumerate(wide.states(dim))}
    return np.array([position[s] for s in w.states(dim)])


def quasi_eigenvalues(a, w: BasisWindow, window, drift_tol: float = 1e-10):
    """Sorted eigenvalues inside the energy interval ``window = (lo, hi)``.

    Safety is enforced two ways: every reported eigenvector must keep its
    probability mass on deep states (all mu_i <= hermite_cut/2, and
    |nu| <= fourier_cut/2 when the operator couples Fourier sectors), and the
    whole list must reproduce under doubling the Hermite cut (both cuts for
    Fourier-coupled operators) to within drift_tol.  For t-independent
    operators the Fourier index is exactly conserved, so the Fourier cut
    selects sectors rather than approximating them and is left alone.  The
    matrix is assembled once, at the doubled cuts; the working matrix is its
    block on the working states, which holds the same amplitudes.

    The operator must be adjoint-symmetric as a word (a NormalForm is
    checked as its ``normal_form_to_word``).  That is tested once, on the
    word, so it holds at every cut; a matrix test would miss terms that only
    the doubled cut reaches, and the eigen-solvers read one triangle only.

    Raises ValueError if the word is not adjoint-symmetric to 1e-12 of its
    largest coefficient or the doubled window exceeds MATRIX_BUDGET, and
    UnsafeWindowError on boundary mass, on a count mismatch between the two
    solves, or on drift above drift_tol.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be an interval (lo, hi) with lo < hi")
    a = _as_word(a)
    require_symmetric(a, "quasi_eigenvalues: the operator")
    dim = a.dim
    couple = _couples_fourier(a)
    wide = w.doubled(couple)
    big = assemble_matrix(a, wide)
    idx = _block_index(w, wide, dim)
    mat = big[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(mat)
    keep = [i for i, v in enumerate(vals) if lo <= v <= hi]

    states = w.states(dim)
    hc, fc = w.hermite_cut, w.fourier_cut
    shallow = np.array(
        [
            any(m > hc / 2 for m in s.mu) or (couple and abs(s.nu) > fc / 2)
            for s in states
        ]
    )
    for i in keep:
        mass = float(np.sum(np.abs(vecs[:, i][shallow]) ** 2))
        if mass > 1e-8:
            raise UnsafeWindowError(
                f"eigenvalue {vals[i]:.6g} keeps mass {mass:.2e} on states "
                "beyond half the cut; enlarge the window cuts"
            )

    mine = np.array([vals[i] for i in keep])
    del mat, vecs  # free the working cut before the doubled solve
    bvals = np.linalg.eigvalsh(big)
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
    """
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


_SPLIT = 32  # fine nodes per coarse node in the split-angle trapezoid rule


def _phi_quadrature(bump, xs: np.ndarray, points_per_width: int) -> np.ndarray:
    """phi(x) = (1/2 pi) integral phi_hat(t) e^{i t x} dt by the trapezoid rule.

    The nodes cover the bump's quadrature window; with a smooth integrand
    that vanishes at both ends the rule is spectrally accurate, and the
    aliasing images sit at |x| ~ 2 pi / step, far outside any state that
    passes the coverage check.

    The nodes are uniform, so with j = B q + r the phase splits as
    e^{i t_j x} = e^{i t_{Bq} x} e^{i r dt x}: per x, B fine and ceil(n/B)
    coarse phases replace n full ones.  The fine phases are contracted with
    the weights, zero-padded to a (ceil(n/B), B) table, in one product, and
    the coarse phases finish the sum.
    """
    t0, t1, n = bump.quadrature_window(points_per_width)
    ts = np.linspace(t0, t1, n)
    dt = ts[1] - ts[0]
    # trapezoid weights times phi_hat, with the 1/2 pi of the inverse transform
    wts = np.array([bump.phi_hat(t) for t in ts], dtype=complex)
    wts *= dt / (2.0 * math.pi)
    wts[[0, -1]] *= 0.5
    # e^{i r dt x} = cos + i sin: for a real phi_hat two real products instead
    # of a complex exp and a complex product; complex weights work unchanged
    wts = _real_if_exact(wts)
    rows = -(-n // _SPLIT)
    table = np.zeros(rows * _SPLIT, dtype=wts.dtype)
    table[:n] = wts
    table = table.reshape(rows, _SPLIT).T
    coarse = ts[::_SPLIT]
    fine = dt * np.arange(_SPLIT)
    out = np.empty(len(xs), dtype=complex)
    chunk = 2048
    for i in range(0, len(xs), chunk):
        x = xs[i : i + chunk]
        arg = np.outer(x, fine)
        inner = np.cos(arg) @ table + 1j * (np.sin(arg) @ table)
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
    """
    lam = np.asarray(list(spectrum), dtype=float)
    if lam.size == 0:
        return 0.0 + 0.0j
    if weights is None:
        wts = np.ones(lam.size)
    else:
        wts = np.asarray(list(weights), dtype=float)
        if wts.shape != lam.shape:
            raise ValueError("weights must match the spectrum in length")
    xs = (lam - E) / hbar
    phis = _phi_quadrature(bump, xs, points_per_width)
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


def model_trace(
    nf: NormalForm,
    E: float,
    hbar: float,
    bump,
    plateau,
    floor: float = 1e-12,
    points_per_width: int = 64,
) -> complex:
    """Trace of the model operator h(P, D_t, hbar) over the full state grid.

    Builds every state with plateau weight rho(prod-max p_i) > 0 and enough
    Fourier range to push the boundary contribution below ``floor``, then
    defers to numeric_trace.  The smooth plateau in the Hermite actions is
    what makes the grid sum converge to the regularized trace: the raw
    cylinder sum oscillates without settling.
    """
    p1, p2 = float(plateau[0]), float(plateau[1])
    if not 0 < p1 < p2:
        raise ValueError("plateau must satisfy 0 < p1 < p2")
    dim = nf.dim
    mu_max = int(math.ceil(p2 / hbar)) + 1
    # Fourier range: x = (lambda - E)/hbar must sweep past the bump tails.
    tail_x = 14.0 / getattr(bump, "width", 0.7)
    spectrum = []
    wts = []
    for mu in itertools.product(range(mu_max + 1), repeat=dim):
        ps = tuple((m + 0.5) * hbar for m in mu)
        rho = 1.0
        for p in ps:
            rho *= smooth_plateau(p, p1, p2)
        if rho == 0.0:
            continue
        base = nf.evaluate(ps, 0.0, hbar)
        x0 = (base - E) / hbar
        lo = int(math.floor(-tail_x - x0)) - 1
        hi = int(math.ceil(tail_x - x0)) + 1
        for nu in range(lo, hi + 1):
            spectrum.append(nf.evaluate(ps, nu * hbar, hbar))
            wts.append(rho)
    return numeric_trace(
        spectrum, E, hbar, bump, wts, floor=floor, points_per_width=points_per_width
    )


# -- coherent states ----------------------------------------------------------------


def _coherent_coefficients(alpha, w: BasisWindow):
    """Hermite expansion of the normalized coherent state at alpha (per mode).

    c_mu = e^{-|alpha|^2 / 2 hbar} alpha^mu / sqrt(hbar^mu mu!) with the
    hbar-scaled ladder normalization.  Raises UnsafeWindowError when the
    occupation |alpha|^2/hbar crosses half the cut or the truncated tail
    mass is visible at the checks' 1e-8 tolerance.
    """
    hbar = w.hbar
    occupancy = abs(alpha) ** 2 / hbar
    if occupancy > w.hermite_cut / 2:
        raise UnsafeWindowError(
            f"coherent occupancy |alpha|^2/hbar = {occupancy:.3g} exceeds "
            f"half the Hermite cut {w.hermite_cut}"
        )
    cs = np.empty(w.hermite_cut + 1, dtype=complex)
    cs[0] = 1.0
    for m in range(1, w.hermite_cut + 1):
        cs[m] = cs[m - 1] * alpha / math.sqrt(hbar * m)
    cs *= math.exp(-abs(alpha) ** 2 / (2.0 * hbar))
    tail = abs(1.0 - float(np.sum(np.abs(cs) ** 2)))
    if tail > 1e-12:
        raise UnsafeWindowError(
            f"coherent-state tail mass {tail:.3e} is not negligible at the "
            "1e-8 check tolerance; enlarge the Hermite cut"
        )
    return cs


def coherent_state_checks(w: BasisWindow, s: float, x: float, xi: float) -> dict:
    """Verify the rotation law, the overlap formula, and the Wick symbol.

    One transverse mode.  With alpha = (x + i xi)/sqrt(2) and the propagator
    phases e^{i s (mu + 1/2) hbar} taken from the assembled harmonic matrix:

    * rotation law:  e^{isP} phi_alpha = e^{is hbar/2} phi_{alpha e^{is hbar}},
    * overlap:       <phi_a, phi_b> = e^{-(|a|^2+|b|^2)/2 hbar} e^{conj(a) b / hbar}
                     (antilinear in the first slot),
    * Wick symbol:   <phi_a, e^{isP} phi_a> = e^{is hbar/2}
                     e^{(e^{is hbar} - 1) |a|^2 / hbar}.

    Returns a report dict with one residual per identity, the tail mass,
    "passed" at the 1e-8 gate, and a convention note: texts that put the
    conjugation on the second slot state the same identities with
    e^{-is hbar} in place of e^{+is hbar}.
    """
    hbar = w.hbar
    alpha = (x + 1j * xi) / math.sqrt(2.0)
    cs = _coherent_coefficients(alpha, w)

    # Propagator phases from the assembled harmonic-oscillator matrix.
    p_op = WordPoly.word(1, mu=(1,), nu=(1,)) + WordPoly.word(1, k=1, coeff=0.5)
    pw = BasisWindow(w.hermite_cut, 0, hbar)
    pmat = assemble_matrix(p_op, pw)
    diag = np.diag(pmat).real
    off = float(np.max(np.abs(pmat - np.diag(np.diag(pmat)))))
    if off > 1e-14:
        raise UnsafeWindowError("harmonic matrix failed to assemble diagonally")
    phases = np.exp(1j * s * diag)

    evolved = phases * cs
    rotated = cmath.exp(1j * s * hbar / 2.0) * _coherent_coefficients(
        alpha * cmath.exp(1j * s * hbar), w
    )
    rotation_residual = float(np.max(np.abs(evolved - rotated)))

    beta = alpha * cmath.exp(1j * s * hbar)
    cb = _coherent_coefficients(beta, w)
    overlap_num = complex(np.vdot(cs, cb))
    overlap_formula = cmath.exp(
        -(abs(alpha) ** 2 + abs(beta) ** 2) / (2.0 * hbar)
    ) * cmath.exp(alpha.conjugate() * beta / hbar)
    overlap_residual = abs(overlap_num - overlap_formula)
    self_residual = abs(complex(np.vdot(cs, cs)) - 1.0)

    wick_num = complex(np.vdot(cs, phases * cs))
    wick_formula = cmath.exp(1j * s * hbar / 2.0) * cmath.exp(
        (cmath.exp(1j * s * hbar) - 1.0) * abs(alpha) ** 2 / hbar
    )
    wick_residual = abs(wick_num - wick_formula)

    tail = abs(1.0 - float(np.sum(np.abs(cs) ** 2)))
    residuals = {
        "rotation_residual": rotation_residual,
        "overlap_residual": overlap_residual,
        "self_overlap_residual": self_residual,
        "wick_residual": wick_residual,
    }
    return {
        **residuals,
        "tail_mass": tail,
        "passed": all(v <= 1e-8 for v in residuals.values()),
        "convention_note": (
            "propagator phases e^{+i s (mu+1/2) hbar}, inner product "
            "antilinear in the first slot; second-slot conventions read the "
            "same identities with e^{-i s hbar}"
        ),
    }


def render_check_report(report: dict) -> str:
    """Structured text: PASS/FAIL per identity plus the max residual."""
    lines = []
    worst = 0.0
    for key in sorted(report):
        if not key.endswith("_residual"):
            continue
        v = float(report[key])
        worst = max(worst, v)
        status = "PASS" if v <= 1e-8 else "FAIL"
        lines.append(f"{status} {key} = {v:.3e}")
    lines.append(f"max residual = {worst:.3e}")
    if "convention_note" in report:
        lines.append(f"note: {report['convention_note']}")
    return "\n".join(lines)


def wick_symbol_numeric(a: WordPoly, w: BasisWindow, x, xi) -> complex:
    """<phi_alpha, A phi_alpha> for a t-independent word, any mode count.

    alpha_i = (x_i + i xi_i)/sqrt(2).  This is the coherent-state (Wick)
    symbol evaluated at the phase-space point; for normal-ordered words it
    must equal the symbol with z -> alpha, which is what the symbol-level
    heat flow predicts.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    xis = np.atleast_1d(np.asarray(xi, dtype=float))
    if len(xs) != a.dim or len(xis) != a.dim:
        raise ValueError("x and xi must have one entry per mode")
    if any(key[2] != 0 or key[3] != 0 for key in a.keys()):
        raise ValueError("wick_symbol_numeric needs a t-independent word")
    alphas = [(xv + 1j * xiv) / math.sqrt(2.0) for xv, xiv in zip(xs, xis)]
    per_mode = [_coherent_coefficients(al, w) for al in alphas]
    coeff = {}
    for mu in itertools.product(range(w.hermite_cut + 1), repeat=a.dim):
        amp = 1.0 + 0.0j
        for i, m in enumerate(mu):
            amp *= per_mode[i][m]
        if amp:
            coeff[BasisState(mu, 0)] = amp
    total = 0.0 + 0.0j
    for ket, amp in coeff.items():
        for target, out_amp in apply_to_basis(a, ket, w.hbar).items():
            bra = coeff.get(target)
            if bra is not None:
                total += bra.conjugate() * out_amp * amp
    return total
