"""Sparse Fourier-Taylor series on T*(R^n x S^1): the commutative symbol algebra.

Conventions (fixed once, used by every module)
----------------------------------------------
Transverse coordinates ``z_j = x_j + i*xi_j``, ``zbar_j = x_j - i*xi_j``,
actions ``p_j = |z_j|^2 / 2 = (x_j^2 + xi_j^2)/2``.  The loop variable ``t``
has period ``2*pi`` with Fourier modes ``e^{i m t}``; ``tau`` is its dual
momentum; ``hbar`` is a formal parameter.

A term key ``(mu, nu, m, j, k)`` stands for the monomial

    z^mu * zbar^nu * e^{i m t} * tau^j * hbar^k .

Gradings:

* ``weight(key) = |mu| + |nu| + 2j + 2k`` -- the joint truncation grading
  (``hbar`` counts 2, like two letter slots).
* vanishing order ``|mu| + |nu| + 2j`` -- order of vanishing at
  ``p = tau = 0`` (``hbar`` counts 0).

``BRACKET_SIGN`` documents the Poisson-bracket sign convention:

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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

from .errors import ResonanceError
from .exactnum import QComplex, conj_c, div_i, times_i
from .graded import INFINITE, GradedPoly, _add_idx, _check_dims
from .graded import key_grade as key_weight

#: Sign of the (t, tau) block of the bracket; see module docstring.
BRACKET_SIGN = +1


def key_vanishing(key) -> int:
    """Order of vanishing at p=tau=0 of a term key (hbar counts 0)."""
    mu, nu, _m, j, _k = key
    return sum(mu) + sum(nu) + 2 * j


def key_conjugate(key):
    """Key of the complex-conjugate monomial."""
    mu, nu, m, j, k = key
    return (nu, mu, -m, j, k)


def _sub_unit(a, i):
    return a[:i] + (a[i] - 1,) + a[i + 1 :]


class FTSeries(GradedPoly):
    """Immutable sparse series; see module docstring for the key convention.

    Parameters
    ----------
    dim : int
        Number of transverse degrees of freedom n.
    terms : mapping key -> coefficient, optional
        Coefficients may be complex numbers or, for exact regression work,
        :class:`~orbitbnf.exactnum.QComplex`.  Exact zeros are dropped;
        keys above ``max_weight`` are truncated away.
    max_weight : int or math.inf
        Truncation bound on ``key_weight``.
    """

    __slots__ = ()
    _GRADING = "weight"

    def __init__(self, dim, terms=None, max_weight=INFINITE):
        super().__init__(dim, terms, max_weight)

    @property
    def max_weight(self):
        return self._cap

    @staticmethod
    def monomial(dim, mu, nu, m=0, j=0, k=0, coeff=1.0 + 0j, max_weight=INFINITE) -> "FTSeries":
        return FTSeries(dim, {(tuple(mu), tuple(nu), m, j, k): coeff}, max_weight)

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            return pointwise_product(self, other)
        return self.scaled(other)

    min_weight = GradedPoly.min_grade
    weight_slice = GradedPoly.grade_slice

    def vanishing_order(self):
        """Order of vanishing at p=tau=0 (hbar weight 0; inf for zero)."""
        return min((key_vanishing(key) for key in self._terms), default=INFINITE)

    def hbar_truncated(self, kmax) -> "FTSeries":
        """Drop terms with hbar-power k > kmax."""
        return self.filtered(lambda key: key[4] <= kmax)

    # -- reality -------------------------------------------------------------

    def conjugate_symbol(self) -> "FTSeries":
        """The series representing the complex conjugate symbol."""
        return FTSeries._trusted(
            self.dim,
            {key_conjugate(key): conj_c(c) for key, c in self._terms.items()},
            self._cap,
        )

    def real_symbol_defect(self) -> float:
        """max |c(mu,nu,m,j,k) - conj(c(nu,mu,-m,j,k))| over stored keys."""
        worst = 0.0
        for key, c in self._terms.items():
            other = self._terms.get(key_conjugate(key), 0)
            worst = max(worst, abs(c - conj_c(other)))
        return worst

    def is_real_symbol(self, tol=0.0) -> bool:
        return self.real_symbol_defect() <= tol

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

    @staticmethod
    def _letters(key):
        mu, nu, m, j, k = key
        return (
            [(f"z{i + 1}", e) for i, e in enumerate(mu)]
            + [(f"zb{i + 1}", e) for i, e in enumerate(nu)]
            + [(f"e^[{m}it]", 1 if m else 0), ("tau", j), ("hbar", k)]
        )


def vanishing_order(a: FTSeries):
    """Order of vanishing at p=tau=0 (hbar counts 0); math.inf for zero."""
    return a.vanishing_order()


def pointwise_product(a: FTSeries, b: FTSeries, max_weight=None) -> FTSeries:
    """Commutative product, truncated at min(max_weight bounds)."""
    _check_dims(a, b)
    if max_weight is not None:
        cap = max_weight
    else:
        cap = min(a.max_weight, b.max_weight)
    out = {}
    for (mu1, nu1, m1, j1, k1), c1 in a._terms.items():
        w1 = sum(mu1) + sum(nu1) + 2 * j1 + 2 * k1
        for (mu2, nu2, m2, j2, k2), c2 in b._terms.items():
            if w1 + sum(mu2) + sum(nu2) + 2 * j2 + 2 * k2 > cap:
                continue
            key = (_add_idx(mu1, mu2), _add_idx(nu1, nu2), m1 + m2, j1 + j2, k1 + k2)
            c = c1 * c2
            out[key] = out[key] + c if key in out else c
    return FTSeries._trusted(a.dim, out, cap)


def poisson_bracket(a: FTSeries, b: FTSeries, max_weight=None) -> FTSeries:
    """Extended Poisson bracket {a, b}; sign convention in module docstring.

    Every term of the bracket of weight-homogeneous series of weights
    (w1, w2) has weight w1 + w2 - 2.
    """
    _check_dims(a, b)
    if max_weight is not None:
        cap = max_weight
    else:
        cap = min(a.max_weight, b.max_weight)
    dim = a.dim
    out = {}
    for (mu1, nu1, m1, j1, k1), c1 in a._terms.items():
        w1 = sum(mu1) + sum(nu1) + 2 * j1 + 2 * k1
        for (mu2, nu2, m2, j2, k2), c2 in b._terms.items():
            w2 = sum(mu2) + sum(nu2) + 2 * j2 + 2 * k2
            if w1 + w2 - 2 > cap:
                continue
            base = c1 * c2
            # transverse block: 2i (dA/dzbar dB/dz - dA/dz dB/dzbar) per mode
            for i in range(dim):
                f = nu1[i] * mu2[i] - mu1[i] * nu2[i]
                if f:
                    key = (
                        _sub_unit(_add_idx(mu1, mu2), i),
                        _sub_unit(_add_idx(nu1, nu2), i),
                        m1 + m2,
                        j1 + j2,
                        k1 + k2,
                    )
                    c = times_i(base * (2 * f))
                    out[key] = out[key] + c if key in out else c
            # (t, tau) block: dA/dt dB/dtau - dA/dtau dB/dt
            f = m1 * j2 - j1 * m2
            if f:
                key = (_add_idx(mu1, mu2), _add_idx(nu1, nu2), m1 + m2, j1 + j2 - 1, k1 + k2)
                c = times_i(base * f)
                out[key] = out[key] + c if key in out else c
    return FTSeries._trusted(dim, out, cap)


def _scale_frac(c, frac: Fraction):
    if isinstance(c, QComplex):
        return c * frac
    return c * float(frac)


def _moyal_term_ranges(t1, t2):
    """Iterate the bidifferential exponents (x, y, u, v) for a term pair."""
    (mu1, nu1, m1, j1, _k1) = t1
    (mu2, nu2, m2, j2, _k2) = t2
    x_ranges = [range(min(nu1[i], mu2[i]) + 1) for i in range(len(mu1))]
    y_ranges = [range(min(mu1[i], nu2[i]) + 1) for i in range(len(mu1))]
    u_range = range((j2 if m1 != 0 else 0) + 1)
    v_range = range((j1 if m2 != 0 else 0) + 1)
    return x_ranges, y_ranges, u_range, v_range


def _moyal_factor(t1, t2, x, y, u, v) -> Fraction:
    """|structure constant| of one bidifferential term (sign handled by caller).

    Left-derivative/right-derivative factors, all real rational:
      X_i = (d/dzbar_i <- , -> d/dz_i) with scalar -hbar,
      Y_i = (d/dz_i <- , -> d/dzbar_i) with scalar +hbar,
      U   = (d/dt <- , -> d/dtau) with scalar i hbar/2,
      V   = (d/dtau <- , -> d/dt) with scalar -i hbar/2,
    each to its exponent over its factorial.
    """
    (mu1, nu1, m1, j1, _), (mu2, nu2, m2, j2, _) = t1, t2
    num = 1
    den = 1
    for i, xi in enumerate(x):
        num *= math.perm(nu1[i], xi) * math.perm(mu2[i], xi)
        den *= math.factorial(xi)
    for i, yi in enumerate(y):
        num *= math.perm(mu1[i], yi) * math.perm(nu2[i], yi)
        den *= math.factorial(yi)
    num *= (m1**u) * math.perm(j2, u)
    den *= (2**u) * math.factorial(u)
    num *= (m2**v) * math.perm(j1, v)
    den *= (2**v) * math.factorial(v)
    return Fraction(num, den)


def moyal_product(a: FTSeries, b: FTSeries, hbar_order: int, max_weight=None) -> FTSeries:
    """Weyl-composition symbol a # b expanded through hbar^hbar_order.

    The hbar^0 slice is the pointwise product; the hbar^1 slice is
    (i/2){a, b}.  Total weight is exactly additive, and the total hbar
    power of each retained term is capped at ``hbar_order``.
    """
    return _moyal_sum(a, b, hbar_order, max_weight, antisymmetric=False)


def moyal_bracket(a: FTSeries, b: FTSeries, hbar_order: int, max_weight=None) -> FTSeries:
    """(a # b - b # a)/(i hbar) through hbar^hbar_order.

    Computed termwise from the antisymmetrized bidifferential sum: the even
    bidifferential orders cancel identically (no floating-point residue), the
    odd orders double, and the division by i*hbar is an exact shift of the
    hbar power.  The hbar^0 slice coincides with :func:`poisson_bracket`;
    every term drops total weight by exactly 2.
    """
    return _moyal_sum(a, b, hbar_order, max_weight, antisymmetric=True)


def _moyal_sum(a, b, hbar_order, max_weight, antisymmetric):
    """The bidifferential sum a # b, or (a # b - b # a)/(i hbar) if antisymmetric."""
    _check_dims(a, b)
    if hbar_order < 0:
        raise ValueError("hbar_order must be >= 0")
    if max_weight is not None:
        cap = max_weight
    else:
        cap = min(a.max_weight, b.max_weight)
    shift = 1 if antisymmetric else 0  # the division by i hbar lowers k by one
    out = {}
    for t1, c1 in a._terms.items():
        (mu1, nu1, m1, j1, k1) = t1
        w1 = key_weight(t1)
        for t2, c2 in b._terms.items():
            (mu2, nu2, m2, j2, k2) = t2
            if w1 + key_weight(t2) - 2 * shift > cap:
                continue
            base = c1 * c2
            x_ranges, y_ranges, u_range, v_range = _moyal_term_ranges(t1, t2)
            for x in _iproduct(*x_ranges):
                for y in _iproduct(*y_ranges):
                    for u in u_range:
                        for v in v_range:
                            q = sum(x) + sum(y) + u + v
                            if antisymmetric and q % 2 == 0:
                                continue  # cancels in the commutator
                            if k1 + k2 + q - shift > hbar_order:
                                continue
                            frac = _moyal_factor(t1, t2, x, y, u, v)
                            if not frac:
                                continue
                            # a # b carries (-1)^{|x|+u}; at odd q, b # a carries
                            # the opposite sign, so the commutator doubles it
                            sign = -1 if (sum(x) + u) % 2 else 1
                            key = (
                                _add_idx(tuple(p - yy for p, yy in zip(mu1, y)), tuple(p - xx for p, xx in zip(mu2, x))),
                                _add_idx(tuple(p - xx for p, xx in zip(nu1, x)), tuple(p - yy for p, yy in zip(nu2, y))),
                                m1 + m2,
                                j1 + j2 - u - v,
                                k1 + k2 + q - shift,
                            )
                            if antisymmetric:
                                c = div_i(_scale_frac(base, 2 * sign * frac))
                            else:
                                c = _scale_frac(base, -frac if sign < 0 else frac)
                            out[key] = out[key] + c if key in out else c
    return FTSeries._trusted(a.dim, out, cap)


# -- rotation data -------------------------------------------------------------


@dataclass(frozen=True)
class RotationData:
    """Rotation angles of the elliptic orbit plus a certified margin.

    ``margin`` is the smallest |theta . kappa + m| over nonzero integer
    vectors with |kappa| <= resonance_order and |m| within the scan bound
    of :func:`nonresonance_margin`.
    """

    theta: tuple
    resonance_order: int
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))

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
    """Exhaustively scan small divisors and certify non-resonance.

    Scans all integer kappa with |kappa| = sum|kappa_i| <= order and all
    integer m with |m| <= order*max(1, ceil(max|theta|)) + 1, and returns
    RotationData carrying min |theta . kappa + m| over nonzero (kappa, m).

    Raises
    ------
    ResonanceError
        If the margin falls below ``threshold``.
    """
    theta = tuple(float(v) for v in theta)
    if order < 1:
        raise ValueError("order must be >= 1")
    n = len(theta)
    mbound = order * max(1, math.ceil(max(abs(v) for v in theta))) + 1
    best = INFINITE
    worst_pair = None
    for kappa in _iproduct(range(-order, order + 1), repeat=n):
        if sum(abs(e) for e in kappa) > order:
            continue
        dot = sum(t * e for t, e in zip(theta, kappa))
        for m in range(-mbound, mbound + 1):
            if not any(kappa) and m == 0:
                continue
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
