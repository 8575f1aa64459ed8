"""Reference computations that only the tests use.

A grid trace of a model operator, coherent-state convention checks, a
numeric Wick symbol, single matrix elements, the per-term loop that
``apply_to_basis`` replaced, an entry-by-entry dict-lookup assembly, band
storage read from a dense matrix and the spectrum on the cube basis that
the action simplex replaced.  Each one rebuilds a quantity from the
oracle's basis and dense matrices, so the tests can hold the library's
results against it.
"""

import cmath
import itertools
import math

import numpy as np

from orbitbnf.errors import UnsafeWindowError
from orbitbnf.graded import _add_idx, _sub_idx
from orbitbnf.normalform import NormalForm
from orbitbnf.oracle import BasisWindow, assemble_matrix, numeric_trace, smooth_plateau
from orbitbnf.words import WordPoly, apply_to_basis


def apply_to_basis_reference(a: WordPoly, state: tuple, hbar: float) -> dict:
    """``apply_to_basis`` as a straight loop over terms, keyed by ``(mu, nu)``.

    The same arithmetic in the same order, so amplitudes and dict order
    must match the library's column builder exactly.
    """
    if hbar <= 0:
        raise ValueError("hbar must be > 0")
    smu, snu = state
    if len(smu) != a.dim:
        raise ValueError("basis state has wrong dimension")
    out = {}
    for (mu, nu, m, j, k), c in a.items():
        if any(smu[i] < nu[i] for i in range(a.dim)):
            continue
        amp = complex(c)
        if k:
            amp *= hbar**k
        if j:
            amp *= (snu * hbar) ** j
        mid = _sub_idx(smu, nu)
        ff = 1
        for i in range(a.dim):
            ff *= math.perm(smu[i], nu[i]) * math.perm(mid[i] + mu[i], mu[i])
        ladder_count = sum(mu) + sum(nu)
        if ladder_count:
            amp *= math.sqrt(ff * hbar**ladder_count)
        target = (_add_idx(mid, mu), snu + m)
        out[target] = out.get(target, 0j) + amp
        if not out[target]:
            del out[target]
    return out


def assemble_matrix_reference(a: WordPoly, w: BasisWindow) -> np.ndarray:
    """``assemble_matrix`` as a dict lookup: each target's row by its ``(mu, nu)``.

    The same amplitudes written to the same entries, one at a time, so the
    library's vectorized assembly must give an identical matrix.
    """
    real = not any(complex(c).imag for _key, c in a.items())
    states = w.states(a.dim)
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=float if real else complex)
    for col, s in enumerate(states):
        for target, amp in apply_to_basis(a, s, w.hbar).items():
            row = index.get(target)
            if row is not None:
                mat[row, col] = amp.real if real else amp
    return mat


def lower_band_reference(mat: np.ndarray, states: np.ndarray, band: int) -> np.ndarray:
    """Lower band storage of the block of the dense ``mat`` on ``states``
    (ascending), read diagonal by diagonal: row d holds the d-th
    subdiagonal.  ``band`` must bound the block's half-bandwidth; one past
    the block's size is cut to it.  The reference for the bands that the
    oracle writes straight from its triplets."""
    n = len(states)
    band = min(band, n - 1)
    lower = np.zeros((band + 1, n), dtype=mat.dtype)
    for d in range(band + 1):
        lower[d, : n - d] = mat[states[d:], states[: n - d]]
    return lower


def cube_eigvalsh(a: WordPoly, cut: int, hbar: float) -> np.ndarray:
    """Ascending eigenvalues of a t-independent word on the cube basis
    ``mu_i <= cut`` (Fourier sector 0): a dense ``eigvalsh`` of the matrix
    assembled by ``apply_to_basis`` column by column, each target found by
    dict lookup."""
    states = [(mu, 0) for mu in itertools.product(range(cut + 1), repeat=a.dim)]
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for col, s in enumerate(states):
        for target, amp in apply_to_basis(a, s, hbar).items():
            row = index.get(target)
            if row is not None:
                mat[row, col] = amp
    return np.linalg.eigvalsh(mat)


def matrix_element(a: WordPoly, bra: tuple, ket: tuple, hbar: float) -> complex:
    """<bra| A |ket> on the Hermite (x) Fourier basis."""
    return apply_to_basis(a, ket, hbar).get(bra, 0j)


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
    pmat = assemble_matrix(p_op, pw).toarray()
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
            coeff[(mu, 0)] = amp
    total = 0.0 + 0.0j
    for ket, amp in coeff.items():
        for target, out_amp in apply_to_basis(a, ket, w.hbar).items():
            bra = coeff.get(target)
            if bra is not None:
                total += bra.conjugate() * out_amp * amp
    return total
