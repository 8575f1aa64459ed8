"""Sparse Fourier-Taylor series on T*(R^n x S^1): the commutative symbol algebra.

Conventions (fixed once, used by every module)
----------------------------------------------
Transverse coordinates ``z_j = x_j + i*xi_j``, ``zbar_j = x_j - i*xi_j``,
actions ``p_j = |z_j|^2 / 2 = (x_j^2 + xi_j^2)/2``.  The loop variable ``t``
has period ``2*pi`` with Fourier modes ``e^{i m t}``; ``tau`` is its dual
momentum; ``hbar`` is a formal parameter.

A term key ``(mu, nu, m, j, k)`` stands for the monomial

    z^mu * zbar^nu * e^{i m t} * tau^j * hbar^k .

The truncation grading is ``weight(key) = |mu| + |nu| + 2j + 2k`` (``hbar``
counts 2, like two letter slots).

The Poisson-bracket sign convention:

    {A,B} = sum_i (dA/dx_i dB/dxi_i - dA/dxi_i dB/dx_i)
            + (dA/dt dB/dtau - dA/dtau dB/dt)
          = sum_i 2i (dA/dzbar_i dB/dz_i - dA/dz_i dB/dzbar_i)
            + (dA/dt dB/dtau - dA/dtau dB/dt).

Consequences used everywhere downstream::

    {tau, e^{imt}}        = -i m e^{imt}
    {theta.p + tau, z_1}  = +i theta_1 z_1
    ad_{H0} = {H0, .} scales z^mu zbar^nu e^{imt} by i(theta.(mu - nu) - m)

This is the sign for which the hbar^1 term of the Moyal product equals
``(i/2){A,B}`` while ``Op(A # B) = Op(A) Op(B)`` for Weyl quantization
(e.g. ``zbar # z = zbar z - hbar``, the symbol identity behind
``a^+ a = P - hbar/2``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import product as _iproduct

from .errors import ResonanceError
from .graded import (
    _BIAS,
    _C,
    _J,
    _K,
    _KEY,
    _M,
    _MASK,
    _MU,
    _MU_BLOCK,
    _NU,
    _NU_BLOCK,
    INFINITE,
    GradedPoly,
    _contractions,
    _field_units,
    _from_packed,
    _layout,
    _packed_operands,
    _read_index,
    _read_real,
    _row,
)
from .graded import key_grade as key_weight


class FTSeries(GradedPoly):
    """Immutable sparse series; see module docstring for the key convention.

    Parameters
    ----------
    dim : int
        Number of transverse degrees of freedom n.
    terms : mapping key -> coefficient, optional
        Complex (or real) coefficients.  Exact zeros are dropped; keys above
        ``max_weight`` are truncated away.
    max_weight : int or math.inf
        Truncation bound on ``key_weight``.
    """

    __slots__ = ()
    _GRADING = "weight"
    _SYMMETRY = "a real symbol"
    _MIRROR = "conjugation"

    def __init__(self, dim, terms=None, max_weight=INFINITE):
        super().__init__(dim, terms, max_weight)

    @property
    def max_weight(self):
        return self._cap

    @staticmethod
    def monomial(dim, mu, nu, m=0, j=0, k=0, coeff=1.0 + 0j, max_weight=INFINITE) -> "FTSeries":
        return FTSeries(dim, {(tuple(mu), tuple(nu), m, j, k): coeff}, max_weight)

    def hbar_truncated(self, kmax) -> "FTSeries":
        """Drop terms with hbar-power k > kmax; ValueError unless kmax is an integer >= 0."""
        kmax = _read_index(kmax, "kmax")
        return self._kept(lambda r: r[_K] <= kmax)

    # -- reality -------------------------------------------------------------

    def conjugate_symbol(self) -> "FTSeries":
        """The series representing the complex conjugate symbol.

        Formed on packed keys: the image of a key swaps its mu and nu blocks
        and negates m.
        """
        nu_shift, tail_shift, block_mask = _layout(self.dim)
        out = {}
        for p, c in self._packed.items():
            tail = p >> tail_shift
            image = (p >> nu_shift & block_mask) + ((p & block_mask) << nu_shift)
            image += (tail - 2 * ((tail & _MASK) - _BIAS)) << tail_shift  # m -> -m
            out[image] = complex(c).conjugate()
        return FTSeries._wrap(self.dim, out, self._cap)

    def _mirrored(self):
        """``(conjugate symbol, True)``: conjugation only permutes keys."""
        return self.conjugate_symbol(), True

    # -- numerics --------------------------------------------------------------

    def evaluate(self, z, t=0.0, tau=0.0, hbar=0.0) -> complex:
        """Evaluate at a numeric point (zbar taken as conj(z))."""
        if len(z) != self.dim:
            raise ValueError("point dimension mismatch")
        z = [complex(v) for v in z]
        zb = [v.conjugate() for v in z]
        total = 0j
        for (mu, nu, m, j, k), c in self._terms.items():
            val = complex(c)
            for i in range(self.dim):
                if mu[i]:
                    val *= z[i] ** mu[i]
                if nu[i]:
                    val *= zb[i] ** nu[i]
            if m:
                val *= complex(math.cos(m * t), math.sin(m * t))
            if j:
                val *= complex(tau) ** j
            if k:
                val *= hbar**k
            total += val
        return total


def poisson_bracket(a: FTSeries, b: FTSeries, max_weight=None, half=False) -> FTSeries:
    """Extended Poisson bracket {a, b}; sign convention in module docstring.

    Every term of the bracket of weight-homogeneous series of weights
    (w1, w2) has weight w1 + w2 - 2.  Keys are packed as in
    :func:`_moyal_sum`, and ``half`` forms only the charge ``<= 0`` part, as
    there.  The transverse block runs per mode, over the modes in which the
    a-term has a z or a zbar.
    """
    fields = (_C, _KEY, _MU, _NU, _M, _J)
    a_terms, partners, bias, cap = _packed_operands(a, b, max_weight, 2, half, fields, fields)
    mu_units, nu_units, _m, j_unit, _k = _field_units(a.dim)
    drops = [mu_u + nu_u for mu_u, nu_u in zip(mu_units, nu_units)]
    out = {}
    get = out.get
    for g1, q1, c1, p1, mu1, nu1, m1, j1 in a_terms:
        p1 -= bias
        # only the modes in which the a-term has a z or a zbar contribute
        modes = [
            (i, x1, y1, drop) for i, (x1, y1, drop) in enumerate(zip(nu1, mu1, drops)) if x1 or y1
        ]
        for c2, p2, mu2, nu2, m2, j2 in partners[g1, q1]:
            base = c1 * c2
            p = p1 + p2
            # transverse block: 2i (dA/dzbar dB/dz - dA/dz dB/dzbar) per mode
            for i, x1, y1, drop in modes:
                f = x1 * mu2[i] - y1 * nu2[i]
                if f:
                    key = p - drop
                    c = 1j * (base * (2 * f))
                    prev = get(key)
                    out[key] = c if prev is None else prev + c
            # (t, tau) block: dA/dt dB/dtau - dA/dtau dB/dt
            f = m1 * j2 - j1 * m2
            if f:
                key = p - j_unit
                c = 1j * (base * f)
                prev = get(key)
                out[key] = c if prev is None else prev + c
    return _from_packed(FTSeries, a.dim, out, cap)


def moyal_product(a: FTSeries, b: FTSeries, hbar_order: int, max_weight=None) -> FTSeries:
    """Weyl-composition symbol a # b expanded through hbar^hbar_order.

    The hbar^0 slice is the pointwise product, so at ``hbar_order`` 0 on
    hbar-free operands this is the commutative product of symbols; the
    hbar^1 slice is (i/2){a, b}.  Total weight is exactly additive, and the
    total hbar power of each retained term is capped at ``hbar_order``.
    """
    return _moyal_sum(a, b, hbar_order, max_weight, antisymmetric=False)


def moyal_bracket(
    a: FTSeries, b: FTSeries, hbar_order: int, max_weight=None, half=False
) -> FTSeries:
    """(a # b - b # a)/(i hbar) through hbar^hbar_order.

    Computed termwise from the antisymmetrized bidifferential sum: the even
    bidifferential orders cancel identically (no floating-point residue), the
    odd orders double, and the division by i*hbar is an exact shift of the
    hbar power.  The hbar^0 slice coincides with :func:`poisson_bracket`;
    every term drops total weight by exactly 2.  ``half`` forms only the
    charge ``<= 0`` part (see :func:`_moyal_sum`).
    """
    return _moyal_sum(a, b, hbar_order, max_weight, antisymmetric=True, half=half)


@functools.lru_cache(maxsize=None)
def _t_block(m1, j1, m2, j2):
    """The Moyal (t, tau) block of a term pair that has one beyond u = v = 0.

    ``(u, v, numerator, denominator)`` per entry, u outer, split as (entries
    of even u + v, entries of odd u + v, all entries), each in that order.
    """
    tt = tuple(
        (
            u,
            v,
            m1**u * math.perm(j2, u) * m2**v * math.perm(j1, v),
            2 ** (u + v) * math.factorial(u) * math.factorial(v),
        )
        for u in range((j2 if m1 else 0) + 1)
        for v in range((j1 if m2 else 0) + 1)
    )
    return _by_parity(tt, lambda e: e[0] + e[1])


def _contraction_parities(a, b):
    """:func:`~orbitbnf.graded._contractions` of (a, b) split by the parity of
    the order ``|l|``: (even entries, odd entries, all entries), each in
    table order: the Moyal sum's Y table, read through
    :func:`~orbitbnf.graded._row`."""
    return _by_parity(_contractions(a, b), operator.itemgetter(0))


def _by_parity(entries, order):
    """(entries of even order, entries of odd order, all entries), each in the given order."""
    even = tuple(e for e in entries if order(e) % 2 == 0)
    if len(even) == len(entries):
        return entries, (), entries
    return even, tuple(e for e in entries if order(e) % 2), entries


def _moyal_sum(a, b, hbar_order, max_weight, antisymmetric, half=False):
    """The bidifferential sum a # b, or (a # b - b # a)/(i hbar) if antisymmetric.

    A term pair expands over exponents (x, y, u, v) of the left/right
    derivative pairs
      X_i = (d/dzbar_i <- , -> d/dz_i) with scalar -hbar,
      Y_i = (d/dz_i <- , -> d/dzbar_i) with scalar +hbar,
      U   = (d/dt <- , -> d/dtau) with scalar i hbar/2,
      V   = (d/dtau <- , -> d/dt) with scalar -i hbar/2,
    each to its exponent over its factorial.  The X block's factor
    perm(nu1, x) perm(mu2, x) / x! is the integer x! C(nu1, x) C(mu2, x), so X
    and Y read the word product's contraction tables
    :func:`~orbitbnf.graded._contractions` for (nu1, mu2) and (mu1, nu2); only
    the (t, tau) block keeps the denominator 2^(u+v) u! v!.  The factor is
    applied as the correctly rounded float num / den, and as the integer num
    when the pair's (t, tau) block is only u = v = 0.

    The order q = |x| + |y| + u + v of a term is the hbar power it adds, and
    the orders past the hbar room ``hbar_order - k1 - k2`` (one more for the
    bracket) are skipped.  In the bracket the even orders cancel and the
    odd ones double, so it reads only the Y entries of the parity that makes
    q odd (:func:`_contraction_parities`), and when the pair's (t, tau)
    block is not trivial, only its entries of that parity.  Its ``-i`` is
    applied once per output term, after the sum.  The terms are generated in
    the order (x, y, u, v) of the full expansion, so the output keeps the
    insertion order of the straight loop.

    Keys are packed into ints (see :func:`~orbitbnf.graded._layout`).  Both
    contractions lower mu and nu alike and raise the hbar power by their
    order, so one packed offset per table entry serves X and Y, and a
    generated key is the sum of the operand keys, the X and Y offsets and
    the (t, tau) offset.  Each a-term looks up its X row (of nu1) and its Y
    row (of mu1, :func:`_contraction_parities`) once
    (:func:`~orbitbnf.graded._row`), and each term pair reads its entries by the
    b-term's packed mu and nu blocks.  A bracket pair whose only
    contraction is the empty one on both sides forms nothing and is skipped
    before any arithmetic.  The result stores the packed keys in the order
    they were first generated (:func:`~orbitbnf.graded._from_packed`).

    With ``half`` only the term pairs whose charges ``|mu| - |nu|`` sum to
    ``<= 0`` are formed (:func:`~orbitbnf.graded._packed_operands`).  Both
    contractions and the (t, tau) block keep the charge of a pair, so this is
    exactly the charge ``<= 0`` part of the sum; the Lie series fills in the
    rest of a real bracket from the conjugate symbol.
    """
    hbar_order = _read_index(hbar_order, "hbar_order")
    shift = 1 if antisymmetric else 0  # the division by i hbar lowers k by one
    a_terms, partners, bias, cap = _packed_operands(
        a, b, max_weight, 2 * shift, half,
        (_C, _KEY, _MU, _NU, _M, _J, _K),
        (_C, _KEY, _MU_BLOCK, _NU_BLOCK, _M, _J, _K),
    )
    _mu, _nu, _m, j_unit, k_unit = _field_units(a.dim)
    t_shift = k_unit - j_unit  # each (t, tau) derivative: one j less, one hbar more
    y_parts = (1, 0) if antisymmetric else (2, 2)  # the Y entries read, by the parity of |x|
    out = {}
    get = out.get
    for g1, q1, c1, p1, mu1, nu1, m1, j1, k1 in a_terms:
        b_terms = partners[g1, q1]
        if not b_terms:
            continue
        room1 = hbar_order + shift - k1
        p1 -= bias + shift * k_unit
        x_row, y_row = _row(_contractions, nu1), _row(_contraction_parities, mu1)
        for c2, p2, mu2, nu2, m2, j2, k2 in b_terms:
            room0 = room1 - k2  # the largest order q kept for this pair
            if room0 < shift:  # the bracket has no order q = 0
                continue
            xs, ys = x_row[mu2], y_row[nu2]
            tt = _t_block(m1, j1, m2, j2) if m1 and j2 or m2 and j1 else None
            if tt is None and shift and len(xs) == 1 and not ys[1]:
                continue  # no contraction on either side: every order q is even
            base = c1 * c2
            p0 = p1 + p2
            for sx, fx, dx in xs:
                room = room0 - sx  # orders left for Y, U and V
                if room < 0:
                    continue
                # a # b carries (-1)^{|x|+u}; at odd q, b # a carries the
                # opposite sign, so the bracket doubles it
                fx = (1 + shift) * (-fx if sx % 2 else fx)
                px = p0 + dx
                if tt is None:  # u = v = 0 only: no division
                    for sy, fy, dy in ys[y_parts[sx % 2]]:
                        if sy > room:
                            continue
                        key = px + dy
                        c = base * (fx * fy)
                        prev = get(key)
                        out[key] = c if prev is None else prev + c
                    continue
                for sy, fy, dy in ys[2]:
                    t_room = room - sy  # orders left for U and V
                    if t_room < 0:
                        continue
                    p = px + dy
                    f = fx * fy
                    for u, v, t_num, den in tt[(sx + sy + 1) % 2 if antisymmetric else 2]:
                        if u + v > t_room:
                            continue
                        c = base * ((-f if u % 2 else f) * t_num / den)
                        key = p + (u + v) * t_shift
                        prev = get(key)
                        out[key] = c if prev is None else prev + c
    if antisymmetric:
        out = {key: -1j * c for key, c in out.items()}
    return _from_packed(FTSeries, a.dim, out, cap)


# -- rotation data -------------------------------------------------------------


@dataclass(frozen=True)
class RotationData:
    """Rotation angles of the elliptic orbit plus a certified margin.

    ``margin`` is the smallest |theta . kappa + m| over nonzero integer
    vectors with |kappa| <= resonance_order and any integer m (see
    :func:`nonresonance_margin`).  The angles and the margin are stored as
    finite floats (the margin >= 0) and the order as an int >= 0, read by
    the package's input rule (ValueError otherwise): a NaN order would let
    :meth:`require_order` pass every order.
    """

    theta: tuple
    resonance_order: int
    margin: float

    def __post_init__(self):
        theta = tuple(_read_real(v, "theta") for v in self.theta)
        order = _read_index(self.resonance_order, "resonance_order")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "resonance_order", order)
        object.__setattr__(self, "margin", _read_real(self.margin, "margin", ">= 0"))

    @property
    def dim(self) -> int:
        return len(self.theta)

    def require_order(self, order: int):
        if order > self.resonance_order:
            raise ValueError(
                f"rotation data certified to order {self.resonance_order}, "
                f"but order {order} required; rebuild with nonresonance_margin"
            )


def nonresonance_margin(theta, order: int, threshold: float = 1e-9) -> RotationData:
    """Scan the small divisors and certify non-resonance.

    Scans all integer kappa with |kappa| = sum|kappa_i| <= order and returns
    RotationData carrying min |theta . kappa + m| over nonzero (kappa, m) with
    m an integer: for each kappa the nearest integer m = -round(theta . kappa)
    gives the smallest divisor, and for kappa = 0 it is 1 (m = -1).

    Raises
    ------
    ValueError
        If an angle is not finite, some ``theta . kappa`` is not (an angle
        so large that the products overflow), ``order`` is not an integer
        >= 1 or ``threshold`` is not finite and > 0 (a NaN threshold would
        certify every angle).
    ResonanceError
        If the margin falls below ``threshold``.
    """
    theta = tuple(_read_real(v, "theta") for v in theta)
    order = _read_index(order, "order", least=1)
    threshold = _read_real(threshold, "threshold", "> 0")
    best = INFINITE
    worst_pair = None
    for kappa in _iproduct(range(-order, order + 1), repeat=len(theta)):
        if sum(abs(e) for e in kappa) > order:
            continue
        dot = sum(t * e for t, e in zip(theta, kappa))
        if not math.isfinite(dot):
            raise ValueError(f"theta={theta}: theta . kappa is not finite at kappa = {kappa}")
        m = -round(dot) if any(kappa) else -1
        val = abs(dot + m)
        if val < best:
            best = val
            worst_pair = (kappa, m)
    if best < threshold:
        raise ResonanceError(
            f"theta={theta} is resonant to order {order}: "
            f"|theta.kappa + m| = {best:.3e} at (kappa, m) = {worst_pair}"
        )
    return RotationData(theta=theta, resonance_order=order, margin=best)
