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
from fractions import Fraction
from functools import lru_cache

from .graded import (
    _BIAS,
    _C,
    _J,
    _KEY,
    _M,
    _MASK,
    _MU_BLOCK,
    _NU,
    _NU_BLOCK,
    _WIDTH,
    GradedPoly,
    _contracted,
    _contractions,
    _field_units,
    _from_packed,
    _layout,
    _packed_operands,
    _read_index,
    _read_real,
    _row,
    is_resonant_key,
    key_grade,
)
from .normalform import NormalForm, _substituted


class WordPoly(GradedPoly):
    """Immutable normal-ordered operator polynomial (see module docstring)."""

    __slots__ = ()
    _GRADING = "grade"
    _MIRROR = "adjoint"

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

    def _mirrored(self):
        """``(adjoint, whether it only permutes keys)`` (:func:`_adjoint`)."""
        return _adjoint(self)


# The terms that can take part in a contracted product: an a-term with an a
# or a D_t power, a b-term with an a^+ power or a Fourier mode.
_CONTRACTING = (lambda r: r[_J] or r[_NU_BLOCK], lambda r: r[_M] or r[_MU_BLOCK])


def normal_order_product(
    a: WordPoly, b: WordPoly, max_grade=None, half=False, contracted=False
) -> WordPoly:
    """Product A*B re-expressed in canonical order; exact on the truncation.

    Uses [a_i, a_j^+] = hbar delta_ij (per-mode contraction identity
    a^nu (a^+)^mu = sum_l l! C(mu,l) C(nu,l) hbar^|l| (a^+)^{mu-l} a^{nu-l})
    and D_t^j e^{imt} = e^{imt} (D_t + m hbar)^j.  The grade of every
    generated term equals grade(A-term) + grade(B-term), so the truncation
    is decided per term pair: each A-term meets only the B-terms that fit
    under the cap with it.

    Keys are packed into ints (see :func:`~orbitbnf.graded._layout`): a
    generated key is the sum of the two operand keys, the ``(D_t + m
    hbar)^j`` offset and the contraction offset read from the one cached
    table :func:`~orbitbnf.graded._contractions` that the Moyal sum shares.
    Each a-term looks up its table row once
    (:func:`~orbitbnf.graded._row`, of the table pre-sliced for
    ``contracted``), and each term pair reads its entry by the b-term's
    packed mu block.  The result stores the packed keys in the order they
    were first generated (:func:`~orbitbnf.graded._from_packed`).

    An explicit max_grade overrides the operands' caps; by default the
    finer of the two caps applies (:func:`~orbitbnf.graded._packed_operands`).

    With ``half`` only the term pairs whose charges ``|mu| - |nu|`` sum to
    ``<= 0`` are formed, which gives exactly the charge ``<= 0`` part of the
    product: a contraction lowers mu and nu alike and the D_t shift moves
    neither.  The Lie series fills in the rest of a symmetric bracket from
    the adjoint (:func:`~orbitbnf.graded.lie_series`).

    With ``contracted`` each term pair leaves out its first term, the
    juxtaposition ``c1 c2 hbar^(k1+k2) e^{i(m1+m2)t} (a^+)^(mu1+mu2)
    a^(nu1+nu2) D_t^(j1+j2)`` (l = 0, no D_t shift), so the result is
    AB - :AB:, where :AB: is the juxtaposition product.  Every term left
    carries at least one more hbar than its pair.  :AB: = :BA: term pair by
    term pair, also under a cap and ``half``, which both keep a pair set
    symmetric in the operands; :func:`commutator_over_ihbar` is the
    difference of two contracted products.
    """
    a_terms, partners, bias, cap = _packed_operands(
        a, b, max_grade, 0, half, (_C, _KEY, _NU, _J), (_C, _KEY, _MU_BLOCK, _M),
        _CONTRACTING if contracted else None,
    )
    _mu, _nu, _m, j_unit, k_unit = _field_units(a.dim)
    dt_shift = k_unit - j_unit  # D_t -> m hbar: one j less, one k more
    source = _contracted if contracted else _contractions
    out = {}
    get = out.get
    for g1, q1, c1, p1, nu1, j1 in a_terms:
        b_terms = partners[g1, q1]
        if not b_terms:
            continue
        p1 -= bias
        row = _row(source, nu1)
        full = _row(_contractions, nu1) if j1 else None
        for c2, p2, mu2, m2 in b_terms:
            table = row[mu2]
            if not (j1 and m2):  # D_t^{j1} passes e^{i m2 t} unchanged: f_d = 1
                if not table:  # only the juxtaposition, left out
                    continue
                base = c1 * c2
                p = p1 + p2
                for _s, f_l, delta in table:
                    key = p + delta
                    c = base * f_l
                    prev = get(key)
                    out[key] = c if prev is None else prev + c
                continue
            base = c1 * c2
            p = p1 + p2
            # move D_t^{j1} through e^{i m2 t}: (D_t + m2 hbar)^{j1}
            for d in range(j1, -1, -1):
                f_d = math.comb(j1, d) * (m2 ** (j1 - d))
                p_d = p + (j1 - d) * dt_shift
                for _s, f_l, delta in table if d == j1 else full[mu2]:
                    key = p_d + delta
                    c = base * (f_d * f_l)
                    prev = get(key)
                    out[key] = c if prev is None else prev + c
    return _from_packed(WordPoly, a.dim, out, cap)


def adjoint(a: WordPoly) -> WordPoly:
    """Formal adjoint, re-normal-ordered; an involution.

    Term rule: (c hbar^k e^{imt} (a^+)^mu a^nu D_t^j)^+ =
    conj(c) hbar^k e^{-imt} (a^+)^nu a^mu (D_t - m hbar)^j.
    """
    return _adjoint(a)[0]


def _adjoint(a: WordPoly):
    """``(adjoint of a, whether it only permutes keys)``, formed on packed keys.

    The key of a term's image swaps the mu and nu blocks and negates m; for
    j, m != 0 the ``(D_t - m hbar)^j`` expansion adds keys of lower j and
    higher k, and images of different terms can meet.  Only without such a
    term is the adjoint a permutation of keys with conjugated coefficients,
    and so exact on sums.  The images keep the grade and |m| of their
    terms, so they lie within the packed-key bounds; they are stored in the
    order they are first formed.
    """
    dim = a.dim
    nu_shift, tail_shift, block_mask = _layout(dim)
    dt_shift = ((1 << (2 * _WIDTH)) - (1 << _WIDTH)) << tail_shift  # one j less, one k more
    permutes = True
    out = {}
    get = out.get
    for p, c in a._packed.items():
        tail = p >> tail_shift
        m = (tail & _MASK) - _BIAS
        j = (tail >> _WIDTH) & _MASK
        cc = complex(c).conjugate()
        image = (p >> nu_shift & block_mask) + ((p & block_mask) << nu_shift)
        image += (tail - 2 * m) << tail_shift
        if not (m and j):  # one image, with the factor comb(j, j) (-m)^0 = 1
            v = cc * 1  # not cc: a complex times an int can flip the sign of a zero part
            prev = get(image)
            out[image] = v if prev is None else prev + v
            continue
        permutes = False
        for d in range(j, -1, -1):
            v = cc * (math.comb(j, d) * ((-m) ** (j - d)))
            key = image + (j - d) * dt_shift
            prev = get(key)
            out[key] = v if prev is None else prev + v
    return _from_packed(WordPoly, dim, out, a.max_grade), permutes


def commutator_over_ihbar(a: WordPoly, b: WordPoly, max_grade=None, half=False) -> WordPoly:
    """(AB - BA)/(i hbar), or its charge ``<= 0`` part with ``half``.

    AB and BA share their juxtaposition terms :AB: = :BA:, pair by pair, so
    the commutator is the difference of the two contracted products
    (``contracted=True`` of :func:`normal_order_product`), in which every
    term carries hbar^k with k >= 1: no hbar-free term is formed, and the
    division by i hbar lowers k by one (grade drops by exactly 2).  With
    ``half`` both products are formed by halves.

    The two products are merged on their packed keys; k is the top field,
    so lowering k is subtracting its unit.
    """
    cap = min(a._cap, b._cap)
    if max_grade is not None:
        cap = min(cap, _read_index(max_grade, "max_grade", infinite=True))
    ab = normal_order_product(a, b, cap + 2, half=half, contracted=True)
    ba = normal_order_product(b, a, cap + 2, half=half, contracted=True)
    k_unit = _field_units(a.dim)[4]
    return WordPoly._wrap(a.dim, {p - k_unit: -1j * c for p, c in (ab - ba)._packed.items()}, cap)


def apply_to_basis(a: WordPoly, state: tuple, hbar: float) -> dict:
    """Exact image of the basis state ``state = (mu, nu)``: a dict mapping
    each target ``(mu, nu)`` to its complex amplitude.

    One pass over each term's modes gives its ladder factor and target.
    Amplitudes accumulate per target in the order the terms reach it, and a
    target whose sum is exactly zero is dropped.  ValueError unless hbar is
    finite and > 0, mu holds one integer >= 0 per mode and nu is an integer
    (numpy ints are accepted and returned as ints; floats are not).
    """
    hbar = _read_real(hbar, "hbar", "> 0")
    smu, snu = state
    smu = tuple(_read_index(i, "basis state mu") for i in smu)
    snu = _read_index(snu, "basis state nu", least=-math.inf)
    if len(smu) != a.dim:
        raise ValueError("basis state has wrong dimension")
    out = {}
    get = out.get
    for (mu, nu, m, j, k), c in a._terms.items():
        ff = 1
        ladder_count = 0
        target = []
        for si, ni, mi in zip(smu, nu, mu):
            if si < ni:  # a^nu annihilates the state
                break
            mid = si - ni
            ff *= math.perm(si, ni) * math.perm(mid + mi, mi)
            ladder_count += ni + mi
            target.append(mid + mi)
        else:
            amp = complex(c)
            if k:
                amp *= hbar**k
            if j:
                amp *= (snu * hbar) ** j
            if ladder_count:
                amp *= math.sqrt(ff * hbar**ladder_count)
            key = (tuple(target), snu + m)
            total = get(key, 0j) + amp
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def _one_mode_table(steps, lowering, shift=(0, 1)):
    """The one-mode terms ``((n, e), Fraction)`` after ``steps`` recurrence steps.

    A term ``(n, e)`` stands for hbar^e times the n-th basis element.  With
    ``shift = (dn, de)``, each step sends ``c (n, e)`` to
    ``c (n + 1, e) + lowering(step, n) c (n + dn, e + de)``, the second term
    formed only for a nonzero factor, starting from ``1 (0, 0)``; the terms
    keep the order in which they are first formed.
    """
    dn, de = shift
    terms = {(0, 0): Fraction(1)}
    for step in range(steps):
        nxt = {}
        for (n, e), c in terms.items():
            nxt[n + 1, e] = nxt.get((n + 1, e), 0) + c
            factor = lowering(step, n)
            if factor:
                nxt[n + dn, e + de] = nxt.get((n + dn, e + de), 0) + factor * c
        terms = nxt
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _ladder_in_actions(kappa):
    """(a^+)^kappa a^kappa = prod_{l<kappa} (p - (l + 1/2) hbar), as the
    terms ``((p_power, hbar_power), Fraction)``, p powers falling."""
    return _one_mode_table(kappa, lambda l, _n: Fraction(-2 * l - 1, 2))


@lru_cache(maxsize=None)
def _action_in_ladders(r):
    """P^r, with P = a^+ a + hbar/2, as the terms ``((kappa, hbar_power),
    Fraction)`` of hbar^e N_kappa, N_kappa = (a^+)^kappa a^kappa; from
    P N_kappa = N_(kappa+1) + (kappa + 1/2) hbar N_kappa."""
    return _one_mode_table(r, lambda _l, kappa: Fraction(2 * kappa + 1, 2))


def diagonal_to_normal_form(a: WordPoly, route=None) -> NormalForm:
    """Rewrite the diagonal part (mu = nu, m = 0) as a table in (p, tau, hbar).

    Uses (a^+)^kappa a^kappa = prod_i prod_{l<kappa_i} (p_i - (l + 1/2) hbar)
    with p_i standing for the oscillator P_i = a_i^+ a_i + hbar/2, and
    D_t^j -> tau^j: the per-mode substitution
    :func:`~orbitbnf.normalform._substituted` with the table
    :func:`_ladder_in_actions`.  Evaluating the result at
    p = (mu + 1/2) hbar, tau = nu hbar reproduces the diagonal matrix
    elements exactly.  TypeError unless ``a`` is a WordPoly (a series goes
    through :meth:`~orbitbnf.normalform.NormalForm.from_resonant_series`).
    """
    if not isinstance(a, WordPoly):
        raise TypeError("expected WordPoly")
    entries = (((key[0], key[3], key[4]), c) for key, c in a.items() if is_resonant_key(key))
    return NormalForm(a.dim, _substituted(entries, _ladder_in_actions), route=route)


def normal_form_to_word(nf: NormalForm, max_grade=math.inf) -> WordPoly:
    """Exact word realization of a table: p^r tau^s hbar^k ->
    prod_i (a_i^+ a_i + hbar/2)^{r_i} * D_t^s * hbar^k, normal-ordered.

    The inverse substitution of :func:`diagonal_to_normal_form`, with the
    table :func:`_action_in_ladders`; terms above ``max_grade`` are dropped.
    """
    terms = _substituted(nf.items(), _action_in_ladders)
    return WordPoly(nf.dim, {(n, n, 0, s, k): c for (n, s, k), c in terms.items()}, max_grade)
