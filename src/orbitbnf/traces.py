"""Trace asymptotics of periodic-orbit contributions, forward and inverse.

For the normal form h = E + theta.p + tau + sum c_{r,s,k} p^r tau^s hbar^k,
the spectrum on the model space is h((mu + 1/2) hbar, nu hbar, hbar), and
the smoothed trace sum_{mu,nu} phi((lambda - E)/hbar) splits into periodic
contributions indexed by the integer l with Fourier weight phi_hat near
2 pi l.  Writing G(t, theta) = e^{i t sum theta_i / 2} / prod_i (1 - e^{i t theta_i}),
Poisson summation in nu and geometric summation in mu give, per l,

    sum_m  d_l^m hbar^m,
    d_l^m = sum over multisets {entry_a ^ q_a} with sum q_a m_a = m of
            prod_a (c_a^{q_a} / q_a!) * Psi_l(K, R, S),
    Psi_l(K, R, S) = i^{K + S} (-i)^{|R|}
                     d_t^S d_theta^R [ t^{K - |R|} phi_hat(t) G(t, theta) ] at t = 2 pi l,

with K = sum q_a, R = sum q_a r_a, S = sum q_a s_a, and m_a = |r_a| + s_a + k_a - 1
the hbar-order at which an entry first contributes.

G factorizes per mode, G = prod_i h(t theta_i) with h(u) = i / (2 sin(u/2)),
so d_theta_i^r acts as t^r h^(r)(t theta_i) and the t-powers combine into t^K.
Every kernel derivative is therefore S! times the t^S coefficient of a
product of one-variable jets in t - 2 pi l: t^K, phi_hat, and
h^(R_i)(t theta_i) per mode.  The only analytic input is the jet of phi_hat
at 2 pi l.

The inverse direction recovers the nonlinear c_{r,s,k} order by order in m:
at each m the unknowns enter d_l^m linearly through the K = 1 columns
Psi_l(1, r, s), and the already-recovered lower orders contribute the known
K >= 2 terms, so each step is one (conditioned, overdetermined) linear solve
across the available l.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedError,
    InconsistentDataError,
    JetDepthError,
    ResonanceError,
)
from .graded import _read_index, _read_real
from .normalform import NormalForm
from .series import RotationData, nonresonance_margin  # re-exported

__all__ = [
    "GaussianBump",
    "TestFunctionJet",
    "TraceExpansion",
    "g_function",
    "forward_trace_expansion",
    "invert_trace_expansion",
    "nonresonance_margin",
    "psi_kernel",
]


# -- test functions ---------------------------------------------------------------


@dataclass(frozen=True)
class GaussianBump:
    """phi_hat(t) = exp(-(t - 2 pi l)^2 / (2 width^2)), one periodic window.

    With width about 0.7 the value at the neighboring lattice points
    2 pi (l +- 1) is ~3e-18, so the bump isolates the single period l.
    phi(x) = (width / sqrt(2 pi)) e^{i 2 pi l x} e^{-width^2 x^2 / 2} in the
    convention phi(x) = (1/2 pi) integral phi_hat(t) e^{i t x} dt.

    ``l`` is stored as a plain int (an integer >= 1: tables are keyed on
    it, and a float key would not survive a CSV round trip) and ``width`` as
    a float; ValueError otherwise.
    """

    l: int
    width: float = 0.7

    def __post_init__(self):
        object.__setattr__(self, "l", _read_index(self.l, "period index l", least=1))
        object.__setattr__(self, "width", _read_real(self.width, "width", "> 0"))
        if not self.width < 1.5:
            raise ValueError("width must be in (0, 1.5) to isolate one period")

    def phi_hat(self, t: float) -> float:
        u = t - 2.0 * math.pi * self.l
        return math.exp(-(u * u) / (2.0 * self.width**2))

    def phi(self, x: float) -> complex:
        w = self.width
        return (
            w / math.sqrt(2.0 * math.pi)
            * cmath.exp(1j * 2.0 * math.pi * self.l * x)
            * math.exp(-(w * x) ** 2 / 2.0)
        )

    def jet(self, depth: int) -> "TestFunctionJet":
        """Exact derivatives at the center: odd vanish, even alternate
        as phi_hat^(2a) = (-1)^a (2a-1)!! / width^(2a).  ValueError unless
        depth is an integer >= 0."""
        derivs = []
        for kk in range(_read_index(depth, "depth") + 1):
            if kk % 2:
                derivs.append(0.0 + 0.0j)
            else:
                a = kk // 2
                v = (-1.0) ** a / self.width ** (2 * a)
                for odd in range(1, 2 * a, 2):
                    v *= odd
                derivs.append(complex(v))
        return TestFunctionJet(self.l, tuple(derivs))

    def quadrature_window(self, points_per_width: int = 64):
        """(t_min, t_max, n_points) covering +-8 widths, for numeric traces.

        ValueError unless points_per_width is an integer >= 1.
        """
        c = 2.0 * math.pi * self.l
        half = 8.0 * self.width
        n = 2 * 8 * _read_index(points_per_width, "points_per_width", least=1) + 1
        return (c - half, c + half, n)


@dataclass(frozen=True)
class TestFunctionJet:
    """Derivatives phi_hat^(k)(2 pi l), k = 0..depth, for one period index l."""

    __test__ = False  # not a test class, though pytest collects names beginning with Test

    l: int
    derivs: tuple

    def __post_init__(self):
        object.__setattr__(self, "l", _read_index(self.l, "period index l", least=1))
        object.__setattr__(self, "derivs", tuple(complex(v) for v in self.derivs))
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in self.derivs):
            raise ValueError("jet derivatives must be finite")

    @property
    def depth(self) -> int:
        return len(self.derivs) - 1


# -- one-variable jets in t ---------------------------------------------------------


def _inv_sin_jet(u0, n):
    """Taylor coefficients of 1 / sin((u0 + e) / 2) in e, orders 0..n.

    sin((u0 + e)/2) has coefficients sin(u0/2 + k pi/2) / (2^k k!); the
    reciprocal series follows from b_0 = 1/s_0, s_0 b_k = -sum_{j>=1} s_j b_{k-j}.
    """
    half = u0 / 2.0
    cycle = (math.sin(half), math.cos(half), -math.sin(half), -math.cos(half))
    s = np.array([cycle[k % 4] / (2.0**k * math.factorial(k)) for k in range(n + 1)])
    b = np.empty(n + 1)
    b[0] = 1.0 / s[0]
    for k in range(1, n + 1):
        b[k] = -(s[1 : k + 1] @ b[k - 1 :: -1]) / s[0]
    return b


_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


def _kernel_derivative(K, R, S, jet, rot, threshold):
    """d_t^S [t^K phi_hat(t) prod_i h^(R_i)(t theta_i)] at t = 2 pi l, K >= 0.

    h(u) = i / (2 sin(u/2)) is one factor of G, so this equals
    d_t^S d_theta^R [t^{K-|R|} phi_hat G]: each d_theta_i pulls out one t.
    Every factor is a one-variable jet in t - 2 pi l truncated at order S.
    """
    if len(R) != rot.dim:
        raise ValueError(f"multi-index {R} has wrong dimension")
    if jet.depth < S:
        raise JetDepthError(
            f"d_t^{S} needs jet depth {S}, but the jet at l={jet.l} has depth {jet.depth}"
        )
    base = 2.0 * math.pi * jet.l
    facts = [math.factorial(j) for j in range(S + max(R, default=0) + 1)]
    f = np.array([jet.derivs[j] / facts[j] for j in range(S + 1)])
    t_jet = [math.comb(K, j) * base ** (K - j) for j in range(min(K, S) + 1)]
    f = np.convolve(f, t_jet)[: S + 1]
    for i, (theta, r) in enumerate(zip(rot.theta, R)):
        g0 = cmath.exp(1j * base * theta)
        if abs(1.0 - g0) < threshold:
            raise ResonanceError(
                f"1 - e^(2 pi i l theta_{i+1}) = {1.0 - g0:.3e} at l={jet.l}: "
                "the periodic denominator degenerates"
            )
        # d_t^j h^(r)(t theta) = theta^j h^(r+j)(t theta), h^(n) = n! [e^n] h, and
        # h = (i/2) / sin(u/2): the (i/2)^dim is applied once at the end
        b = _inv_sin_jet(base * theta, r + S)
        h_jet = [facts[r + j] / facts[j] * b[r + j] * theta**j for j in range(S + 1)]
        f = np.convolve(f, h_jet)[: S + 1]
    return complex(f[S]) * facts[S] * _I_POWERS[rot.dim % 4] * 0.5**rot.dim


def psi_kernel(K, R, S, jet: TestFunctionJet, rot: RotationData, threshold=1e-9):
    """Psi_l(K, R, S): the assembled derivative of t^{K-|R|} phi_hat G at 2 pi l.

    Linear in the jet.  Requires jet depth >= S (deeper derivatives of
    phi_hat never enter the t^S coefficient because the other factors
    are jets with nonnegative valuation in delta t).  ValueError unless K,
    S and the entries of R are integers >= 0 and threshold is finite and > 0.
    """
    K, S = _read_index(K, "K"), _read_index(S, "S")
    R = tuple(_read_index(v, "R") for v in R)
    threshold = _read_real(threshold, "threshold", "> 0")
    phase = _I_POWERS[(K + S) % 4] * _I_POWERS[(-sum(R)) % 4]
    return phase * _kernel_derivative(K, R, S, jet, rot, threshold)


def g_function(r, s, jet: TestFunctionJet, rot: RotationData, threshold=1e-9):
    """g^l_{r,s} = (-i)^{|r|+s} (2 pi l)^{-|r|} d_theta^r d_t^s [G t phi_hat] at 2 pi l.

    The printed normalization of the one-orbit amplitude; exposed for direct
    inspection and finite-difference checking.  The assembly and inversion
    use psi_kernel, which differs from this by i-phases and the placement
    of the t-power (both conventions are linear in the jet).  ValueError
    unless s and the entries of r are integers >= 0 and threshold is finite
    and > 0.
    """
    r, s = tuple(_read_index(v, "r") for v in r), _read_index(s, "s")
    threshold = _read_real(threshold, "threshold", "> 0")
    phase = _I_POWERS[(-(sum(r) + s)) % 4]
    base = 2.0 * math.pi * jet.l
    return phase * _kernel_derivative(1 + sum(r), r, s, jet, rot, threshold) * base ** (-sum(r))


# -- forward expansion -------------------------------------------------------------


@dataclass
class TraceExpansion:
    """Coefficient table d_l^m with the jets that made it."""

    entries: dict  # (l, m) -> complex
    jets: dict  # l -> TestFunctionJet

    def d(self, l, m) -> complex:
        return self.entries.get((l, m), 0.0 + 0.0j)

    def to_csv(self) -> str:
        lines = ["l,m,re,im"]
        for (l, m) in sorted(self.entries):
            v = self.entries[(l, m)]
            lines.append(f"{l},{m},{v.real!r},{v.imag!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text, jets) -> "TraceExpansion":
        entries = {}
        rows = [ln for ln in text.strip().splitlines() if ln.strip()]
        if rows and rows[0].lower().startswith("l,"):
            rows = rows[1:]
        for ln in rows:
            l_s, m_s, re_s, im_s = ln.split(",")
            entries[(int(l_s), int(m_s))] = complex(float(re_s), float(im_s))
        return TraceExpansion(entries, dict(jets))


def _nonlinear_entries(nf: NormalForm):
    """Check the tau coefficient is 1 and list (r, s, k, c, m_a)."""
    if abs(nf.tau_coefficient() - 1.0) > 1e-9:
        raise ValueError("normal form tau coefficient must be 1")
    out = []
    for (r, s, k), c in nf.nonlinear_items():
        m_a = sum(r) + s + k - 1
        if m_a < 1:
            raise ValueError(
                f"entry {(r, s, k)} contributes at hbar order 0: a bare hbar "
                "constant shifts the test-function argument uniformly and must "
                "be folded into the energy or the test function before expanding"
            )
        out.append((r, s, k, float(c), m_a))
    return out


def _multisets(entries, m):
    """Yield lists [(entry_index, q), ...] with sum q * m_a = m."""

    def rec(i, remaining, picked):
        if remaining == 0:
            yield list(picked)
            return
        if i >= len(entries):
            return
        m_a = entries[i][4]
        qmax = remaining // m_a
        for q in range(qmax, -1, -1):
            if q:
                picked.append((i, q))
            yield from rec(i + 1, remaining - q * m_a, picked)
            if q:
                picked.pop()

    yield from rec(0, m, [])


def _multiset_sum(entries, m, jet, rot, threshold):
    """sum over multisets with sum q_a m_a = m of prod_a (c_a^q_a / q_a!) Psi_l(K, R, S)."""
    acc = 0.0 + 0.0j
    for multiset in _multisets(entries, m):
        K = 0
        S = 0
        R = [0] * rot.dim
        factor = 1.0
        for idx, q in multiset:
            r, s, k, c, m_a = entries[idx]
            K += q
            S += q * s
            for i, ri in enumerate(r):
                R[i] += q * ri
            factor *= c**q / math.factorial(q)
        acc += factor * psi_kernel(K, tuple(R), S, jet, rot, threshold)
    return acc


def forward_trace_expansion(
    nf: NormalForm, jets, M: int, threshold=1e-9
) -> TraceExpansion:
    """Assemble d_l^m for m < M from the normal form and one jet per l.

    The trace argument is (spectrum - E)/hbar with E = nf.energy(), so the
    energy entry never appears; d_l^0 = phi_hat(2 pi l) G(2 pi l, theta), and
    the m-th coefficient consumes entries with m_a <= m only (triangular).
    ValueError unless M is an integer >= 1 and threshold is finite and > 0.
    """
    M = _read_index(M, "M", least=1)
    threshold = _read_real(threshold, "threshold", "> 0")
    rot = _rot_of(nf)
    entries = _nonlinear_entries(nf)
    table = {}
    for jet in jets:
        l = jet.l
        table[(l, 0)] = psi_kernel(0, (0,) * nf.dim, 0, jet, rot, threshold)
        for m in range(1, M):
            table[(l, m)] = _multiset_sum(entries, m, jet, rot, threshold)
    return TraceExpansion(table, {jet.l: jet for jet in jets})


def _rot_of(nf: NormalForm):
    """RotationData implied by the normal form's linear part, order-certified."""
    degrees = [sum(r) + s + k for (r, s, k), _ in nf.items()]
    order = max([2] + degrees)
    return nonresonance_margin(nf.theta(), order)


# -- inversion ----------------------------------------------------------------------


def invert_trace_expansion(
    tr: TraceExpansion,
    rot: RotationData,
    M: int,
    k_max: int = 0,
    cond_threshold: float = 1e10,
    residual_tol: float = 1e-6,
    threshold: float = 1e-9,
):
    """Recover the nonlinear c_{r,s,k} with |r| + s + k <= M from trace data.

    Works order by order in m = 1..M-1: the unknowns of step m are the keys
    with |r| + s + k = m + 1 and k <= k_max; they enter d_l^m linearly with
    coefficient Psi_l(1, r, s), while all multiset terms built from already
    recovered entries are subtracted from the data first.  Each step solves
    the real-stacked overdetermined system across l with column scaling.

    Returns (NormalForm of recovered nonlinear entries, report dict with
    per-step condition numbers and residuals).

    Raises
    ------
    IllConditionedError
        If a step's scaled condition number exceeds cond_threshold.
    InconsistentDataError
        If the free part d_l^0 disagrees with the jets, or a step's
        least-squares residual exceeds residual_tol * scale.
    ValueError
        Unless M is an integer >= 1, k_max an integer >= 0, and
        cond_threshold, residual_tol and threshold are finite and > 0 (a NaN
        would switch its check off).
    """
    M = _read_index(M, "M", least=1)
    k_max = _read_index(k_max, "k_max")
    cond_threshold = _read_real(cond_threshold, "cond_threshold", "> 0")
    residual_tol = _read_real(residual_tol, "residual_tol", "> 0")
    threshold = _read_real(threshold, "threshold", "> 0")
    dim = rot.dim
    ls = sorted(tr.jets)
    # free-part consistency
    for l in ls:
        jet = tr.jets[l]
        free = psi_kernel(0, (0,) * dim, 0, jet, rot, threshold)
        if abs(tr.d(l, 0) - free) > residual_tol * (1.0 + abs(free)):
            raise InconsistentDataError(
                f"d_{l}^0 = {tr.d(l, 0)} disagrees with the jet's free part {free}"
            )
    recovered = []  # (r, s, k, c, m_a)
    report = {"condition_numbers": {}, "residuals": {}, "unknown_counts": {}}
    for m in range(1, M):
        unknowns = []
        for k in range(min(k_max, m + 1) + 1):
            deg = m + 1 - k
            for s in range(deg + 1):
                for r in _compositions(deg - s, dim):
                    unknowns.append((r, s, k))
        # keys sorted for determinism
        unknowns.sort(key=lambda e: (e[2], e[1], e[0]))
        nu = len(unknowns)
        report["unknown_counts"][m] = nu
        if nu == 0:
            continue
        if 2 * len(ls) < nu:
            raise IllConditionedError(
                f"step m={m}: {nu} unknowns but only {len(ls)} period indices"
            )
        A = np.zeros((2 * len(ls), nu))
        b = np.zeros(2 * len(ls))
        for li, l in enumerate(ls):
            jet = tr.jets[l]
            known = _multiset_sum(recovered, m, jet, rot, threshold)
            rhs = tr.d(l, m) - known
            b[li] = rhs.real
            b[len(ls) + li] = rhs.imag
            for ui, (r, s, k) in enumerate(unknowns):
                col = psi_kernel(1, r, s, jet, rot, threshold)
                A[li, ui] = col.real
                A[len(ls) + li, ui] = col.imag
        scale = np.max(np.abs(A), axis=0)
        if np.any(scale == 0):
            raise IllConditionedError(
                f"step m={m}: a column is identically zero (increase jet depth "
                "or add period indices)"
            )
        As = A / scale
        sv = np.linalg.svd(As, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        report["condition_numbers"][m] = cond
        if cond > cond_threshold:
            raise IllConditionedError(
                f"step m={m}: condition number {cond:.3e} exceeds "
                f"{cond_threshold:.1e}; add more period indices l, or, if the "
                "unknowns include hbar powers, vary the test-function widths "
                "across l (a single rigid family satisfies exact derivative "
                "identities that make those columns dependent)"
            )
        x, *_ = np.linalg.lstsq(As, b, rcond=None)
        resid = float(np.linalg.norm(As @ x - b))
        report["residuals"][m] = resid
        bscale = 1.0 + float(np.linalg.norm(b))
        if resid > residual_tol * bscale:
            raise InconsistentDataError(
                f"step m={m}: least-squares residual {resid:.3e} exceeds "
                f"{residual_tol:g} * {bscale:.3e}; the data is not a trace "
                "expansion of this model"
            )
        vals = x / scale
        for (r, s, k), v in zip(unknowns, vals):
            recovered.append((r, s, k, float(v), m))
    coeffs = {(r, s, k): c for (r, s, k, c, _m) in recovered}
    nf = NormalForm(dim, coeffs, route="inverted")
    return nf, report


def _compositions(total, dim):
    """All multi-indices r with |r| = total (lexicographic)."""
    if dim == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, dim - 1):
            yield (first,) + rest
