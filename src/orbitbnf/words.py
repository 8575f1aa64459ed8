"""Normal-ordered words in ladder operators a_i, a_i^+ and D_t.

A term key ``(mu, nu, m, j, k)`` stands for the canonically ordered word

    coeff * hbar^k * e^{i m t} * (a^+)^mu * a^nu * D_t^j

with commutation relations ``[a_i, a_j^+] = hbar delta_ij`` and
``D_t e^{imt} = e^{imt} (D_t + m hbar)``; the ``a_i`` are t-independent, so
``D_t`` commutes with them.  The grade of a key is
``|mu| + |nu| + 2j + 2k`` (``D_t`` and ``hbar`` occupy two letter slots each),
and it is exactly additive under products.

On the Hermite (x) Fourier basis state ``|mu, nu>``:

    a_i   |mu, nu> = sqrt(mu_i hbar)       |mu - e_i, nu>
    a_i^+ |mu, nu> = sqrt((mu_i + 1) hbar) |mu + e_i, nu>
    D_t   |mu, nu> = nu hbar |mu, nu>
    e^{imt} |mu, nu> = |mu, nu + m>
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OrderingError
from .graded import (
    GradedPoly,
    _add_idx,
    _check_dims,
    _contractions,
    _sub_idx,
    is_resonant_key,
    key_grade,
    max_coeff_difference,
)
from .normalform import NormalForm


@dataclass(frozen=True)
class BasisState:
    """Hermite indices mu (one per transverse mode) and Fourier index nu."""

    mu: tuple
    nu: int

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(int(e) for e in self.mu))
        if any(e < 0 for e in self.mu):
            raise ValueError("Hermite indices must be >= 0")


class WordPoly(GradedPoly):
    """Immutable normal-ordered operator polynomial (see module docstring)."""

    __slots__ = ()
    _GRADING = "grade"

    def __init__(self, dim, terms=None, max_grade=math.inf):
        super().__init__(dim, terms, max_grade)

    @property
    def max_grade(self):
        return self._cap

    # -- constructors ------------------------------------------------------

    @staticmethod
    def word(dim, mu=None, nu=None, m=0, j=0, k=0, coeff=1.0 + 0j, max_grade=math.inf) -> "WordPoly":
        mu = tuple(mu) if mu is not None else (0,) * dim
        nu = tuple(nu) if nu is not None else (0,) * dim
        return WordPoly(dim, {(mu, nu, m, j, k): coeff}, max_grade)

    @staticmethod
    def creation(dim, i, max_grade=math.inf) -> "WordPoly":
        e = tuple(1 if a == i else 0 for a in range(dim))
        return WordPoly.word(dim, mu=e, max_grade=max_grade)

    @staticmethod
    def annihilation(dim, i, max_grade=math.inf) -> "WordPoly":
        e = tuple(1 if a == i else 0 for a in range(dim))
        return WordPoly.word(dim, nu=e, max_grade=max_grade)

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            return normal_order_product(self, other)
        return self.scaled(other)

    def diagonal_part(self) -> "WordPoly":
        """Terms commuting with the harmonic part: mu = nu and m = 0."""
        return self.filtered(is_resonant_key)

    def off_diagonal_part(self) -> "WordPoly":
        return self.filtered(lambda key: not is_resonant_key(key))

    def adjoint_defect(self) -> float:
        """max coefficient difference between self and adjoint(self)."""
        return max_coeff_difference(self, adjoint(self))


def wlg_grade(a: WordPoly):
    """Minimal letter count over stored terms (math.inf for the zero word)."""
    return a.min_grade()


def normal_order_product(a: WordPoly, b: WordPoly, max_grade=None) -> WordPoly:
    """Product A*B re-expressed in canonical order; exact on the truncation.

    Uses [a_i, a_j^+] = hbar delta_ij (per-mode contraction identity
    a^nu (a^+)^mu = sum_l l! C(mu,l) C(nu,l) hbar^|l| (a^+)^{mu-l} a^{nu-l},
    read from the cached table :func:`~orbitbnf.graded._contractions` that
    the Moyal sum shares) and D_t^j e^{imt} = e^{imt} (D_t + m hbar)^j.  The
    grade of every generated term equals grade(A-term) + grade(B-term), so
    the truncation check is a single comparison per term pair.

    An explicit max_grade overrides the operands' caps (the caller asserts
    the operands are complete far enough for that to be meaningful); by
    default the finer of the two caps applies.
    """
    _check_dims(a, b)
    if max_grade is not None:
        cap = max_grade
    else:
        cap = min(a.max_grade, b.max_grade)
    b_terms = [(key, c, key_grade(key)) for key, c in b._terms.items()]
    out = {}
    for (mu1, nu1, m1, j1, k1), c1 in a._terms.items():
        g1 = sum(mu1) + sum(nu1) + 2 * j1 + 2 * k1
        for (mu2, nu2, m2, j2, k2), c2, g2 in b_terms:
            if g1 + g2 > cap:
                continue
            base = c1 * c2
            table = _contractions(nu1, mu2)
            # move D_t^{j1} through e^{i m2 t}: (D_t + m2 hbar)^{j1}
            for d in range(j1, -1, -1):
                if m2 == 0 and d != j1:
                    break
                f_d = math.comb(j1, d) * (m2 ** (j1 - d))
                if not f_d:
                    continue
                for s, f_l, mu2_l, nu1_l in table:
                    key = (
                        _add_idx(mu1, mu2_l),
                        _add_idx(nu1_l, nu2),
                        m1 + m2,
                        d + j2,
                        k1 + k2 + (j1 - d) + s,
                    )
                    c = base * (f_d * f_l)
                    out[key] = out[key] + c if key in out else c
    return WordPoly._trusted(a.dim, out, cap)


def adjoint(a: WordPoly) -> WordPoly:
    """Formal adjoint, re-normal-ordered; an involution.

    Term rule: (c hbar^k e^{imt} (a^+)^mu a^nu D_t^j)^+ =
    conj(c) hbar^k e^{-imt} (a^+)^nu a^mu (D_t - m hbar)^j.
    """
    out = {}
    for (mu, nu, m, j, k), c in a._terms.items():
        cc = complex(c).conjugate()
        for d in range(j, -1, -1):
            if m == 0 and d != j:
                break
            f = math.comb(j, d) * ((-m) ** (j - d))
            if not f:
                continue
            key = (nu, mu, -m, d, k + j - d)
            v = cc * f
            out[key] = out[key] + v if key in out else v
    return WordPoly._trusted(a.dim, out, a.max_grade)


def commutator_over_ihbar(a: WordPoly, b: WordPoly, max_grade=None) -> WordPoly:
    """(AB - BA)/(i hbar).

    The hbar-free parts of AB and BA are identical term sets and cancel;
    when several term pairs accumulate into one key the two products may
    round differently, so a residue below 1e-12 * product scale at hbar^0
    is recognized as that cancellation and dropped.  Every genuine
    commutator term carries hbar^k with k >= 1, and the division shifts k
    down by one (grade drops by exactly 2).

    Raises
    ------
    OrderingError
        If an hbar-free term survives above the cancellation tolerance
        (an ordering bug).
    """
    _check_dims(a, b)
    cap = min(a.max_grade, b.max_grade)
    if max_grade is not None:
        cap = min(cap, max_grade)
    ab = normal_order_product(a, b, cap + 2)
    ba = normal_order_product(b, a, cap + 2)
    noise = 1e-12 * max(ab.max_abs_coeff(), ba.max_abs_coeff())
    raw = ab - ba
    out = {}
    for (mu, nu, m, j, k), c in raw.items():
        if k < 1:
            if abs(c) <= noise:
                continue
            raise OrderingError(
                f"commutator term {(mu, nu, m, j, k)} lacks an hbar factor"
            )
        out[(mu, nu, m, j, k - 1)] = -1j * c
    return WordPoly._trusted(a.dim, out, cap)


def apply_to_basis(a: WordPoly, s: BasisState, hbar: float) -> dict:
    """Exact image of a basis state: map BasisState -> complex amplitude."""
    if hbar <= 0:
        raise ValueError("hbar must be > 0")
    if len(s.mu) != a.dim:
        raise ValueError("basis state has wrong dimension")
    out = {}
    for (mu, nu, m, j, k), c in a._terms.items():
        if any(s.mu[i] < nu[i] for i in range(a.dim)):
            continue
        amp = complex(c)
        if k:
            amp *= hbar**k
        if j:
            amp *= (s.nu * hbar) ** j
        mid = _sub_idx(s.mu, nu)
        ff = 1
        for i in range(a.dim):
            ff *= math.perm(s.mu[i], nu[i]) * math.perm(mid[i] + mu[i], mu[i])
        ladder_count = sum(mu) + sum(nu)
        if ladder_count:
            amp *= math.sqrt(ff * hbar**ladder_count)
        target = BasisState(_add_idx(mid, mu), s.nu + m)
        out[target] = out.get(target, 0j) + amp
        if not out[target]:
            del out[target]
    return out


def matrix_element(a: WordPoly, bra: BasisState, ket: BasisState, hbar: float) -> complex:
    """<bra| A |ket> on the Hermite (x) Fourier basis."""
    return apply_to_basis(a, ket, hbar).get(bra, 0j)


def diagonal_to_normal_form(a: WordPoly, route=None, imag_tol=1e-9) -> NormalForm:
    """Rewrite the diagonal part (mu = nu, m = 0) as a table in (p, tau, hbar).

    Uses (a^+)^kappa a^kappa = prod_i prod_{l<kappa_i} (p_i - (l + 1/2) hbar)
    with p_i standing for the oscillator P_i = a_i^+ a_i + hbar/2, and
    D_t^j -> tau^j.  Evaluating the result at p = (mu + 1/2) hbar,
    tau = nu hbar reproduces the diagonal matrix elements exactly.
    """
    coeffs = {}
    zero_r = (0,) * a.dim
    for (mu, nu, m, j, k), c in a._terms.items():
        if mu != nu or m != 0:
            continue
        # expand prod_i prod_{l<mu_i} (p_i - (l+1/2) hbar) as {(r, dk): coeff}
        poly = {(zero_r, 0): 1.0}
        for i, kap in enumerate(mu):
            e_i = tuple(1 if x == i else 0 for x in range(a.dim))
            for l in range(kap):
                nxt = {}
                for (r, dk), v in poly.items():
                    up = (_add_idx(r, e_i), dk)
                    nxt[up] = nxt.get(up, 0.0) + v
                    dn = (r, dk + 1)
                    nxt[dn] = nxt.get(dn, 0.0) - v * (l + 0.5)
                poly = nxt
        for (r, dk), v in poly.items():
            entry = (r, j, k + dk)
            coeffs[entry] = coeffs.get(entry, 0.0) + c * v
    return NormalForm(a.dim, coeffs, route=route, imag_tol=imag_tol)


def normal_form_to_word(nf: NormalForm, max_grade=math.inf) -> WordPoly:
    """Exact word realization of a table: p^r tau^s hbar^k ->
    prod_i (a_i^+ a_i + hbar/2)^{r_i} * D_t^s * hbar^k, normal-ordered."""
    dim = nf.dim
    zero = (0,) * dim
    total = WordPoly.zero(dim, max_grade)
    for (r, s, k), c in nf.items():
        w = WordPoly(dim, {(zero, zero, 0, s, k): c}, max_grade)
        for i, ri in enumerate(r):
            e_i = tuple(1 if x == i else 0 for x in range(dim))
            p_word = WordPoly(
                dim, {(e_i, e_i, 0, 0, 0): 1.0, (zero, zero, 0, 0, 1): 0.5}, max_grade
            )
            for _ in range(ri):
                w = normal_order_product(w, p_word)
        total = total + w
    return total
