"""Sparse graded polynomials and the graded Birkhoff sweep shared by every route.

Both algebras of the package store the same data: a dict from term keys
``(mu, nu, m, j, k)`` to coefficients, graded by ``|mu| + |nu| + 2j + 2k``
(``tau``/``D_t`` and ``hbar`` occupy two slots each) and truncated above a
cap.  :class:`GradedPoly` holds that storage and everything that does not
depend on the product: construction, linear structure, caps, slices,
records and JSON.  :class:`~orbitbnf.series.FTSeries` (commutative symbols,
cap ``max_weight``) and :class:`~orbitbnf.words.WordPoly` (normal-ordered
words, cap ``max_grade``) add their products and named constructors.

Both noncommutative products draw their integer structure constants from one
cached table, :func:`_contractions`: the word product contracts ``a^nu``
against ``(a^+)^mu`` with ``l! C(mu, l) C(nu, l)``, and the Moyal sum's
transverse factor ``perm(n, x) perm(m, x) / x!`` is the same integer
``x! C(n, x) C(m, x)``.

The second half is the normal-form engine.  A route supplies its bracket,
the closed-form ad_{H0} eigenvalue of a key and the map from resonant terms
to a :class:`~orbitbnf.normalform.NormalForm`; :func:`birkhoff_sweep` does
the grade slicing, the homological solves, the Lie-series conjugations and
the final split into normal form and remainder.  The kernel of ad_{H0} is
the same in both algebras (:func:`is_resonant_key`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator

from .errors import NonNilpotentError, ResonanceError

INFINITE = math.inf


def key_grade(key) -> int:
    """Grade |mu| + |nu| + 2j + 2k of a term key (tau/D_t and hbar count 2)."""
    mu, nu, _m, j, k = key
    return sum(mu) + sum(nu) + 2 * j + 2 * k


def is_resonant_key(key) -> bool:
    """Kernel of ad_{H0} in either algebra: mu = nu and Fourier mode 0."""
    mu, nu, m, _j, _k = key
    return mu == nu and m == 0


def theta_shift(theta, key) -> float:
    """theta . (mu - nu), the transverse part of a key's ad_{H0} eigenvalue."""
    return sum(t * (a - b) for t, a, b in zip(theta, key[0], key[1]))


def _add_idx(a, b):
    return tuple(map(operator.add, a, b))


def _sub_idx(a, b):
    return tuple(map(operator.sub, a, b))


_SHARED_IDX = {}


@functools.lru_cache(maxsize=None)
def _contractions(nu1, mu2):
    """Contraction table of a^{nu1} against (a^+)^{mu2}, shared by both products.

    One entry ``(|l|, f_l, mu2 - l, nu1 - l)`` per ``0 <= l <= min(nu1, mu2)``
    in ``itertools.product`` order, with the integer
    ``f_l = prod_i l_i! C(mu2_i, l_i) C(nu1_i, l_i)``.  The word product reads
    it for the pair (nu1, mu2) of its operands.  The Moyal sum reads it twice,
    for (nu1, mu2) and (mu1, nu2), because its transverse factor
    ``perm(n, x) perm(m, x) / x!`` equals ``x! C(n, x) C(m, x)``.  Keyed on
    exponents only, which the grade cap bounds; the residual multi-indices are
    shared between entries.
    """
    share = _SHARED_IDX.setdefault
    table = []
    for l in itertools.product(*(range(min(a, b) + 1) for a, b in zip(nu1, mu2))):
        f_l = 1
        for li, a, b in zip(l, nu1, mu2):
            f_l *= math.factorial(li) * math.comb(b, li) * math.comb(a, li)
        mu_rest, nu_rest = _sub_idx(mu2, l), _sub_idx(nu1, l)
        table.append((sum(l), f_l, share(mu_rest, mu_rest), share(nu_rest, nu_rest)))
    return tuple(table)


def _sort_token(key):
    mu, nu, m, j, k = key
    return (key_grade(key), k, j, m, mu, nu)


def _validate_key(key, dim):
    """The key as a tuple of plain ints; ValueError if it is not a valid key."""
    mu, nu, m, j, k = key
    try:
        mu, nu = tuple(map(operator.index, mu)), tuple(map(operator.index, nu))
        m, j, k = operator.index(m), operator.index(j), operator.index(k)
    except TypeError:
        raise ValueError(f"exponents and Fourier mode must be integers in key {key}") from None
    if len(mu) != dim or len(nu) != dim:
        raise ValueError(f"multi-index length != dim={dim} in key {key}")
    if min(mu + nu + (j, k)) < 0:
        raise ValueError(f"negative exponent in key {key}")
    return mu, nu, m, j, k


def _within(terms, cap):
    """The terms of grade <= cap (all of them when the cap is infinite)."""
    if cap == INFINITE:
        return terms
    return {key: c for key, c in terms.items() if key_grade(key) <= cap}


def _check_dims(a, b):
    if type(a) is not type(b):
        raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def max_coeff_difference(a, b) -> float:
    """max over all keys of |a[key] - b[key]|."""
    _check_dims(a, b)
    worst = 0.0
    for key in a._terms.keys() | b._terms.keys():
        worst = max(worst, abs(a._terms.get(key, 0) - b._terms.get(key, 0)))
    return worst


class GradedPoly:
    """Immutable sparse graded polynomial: key (mu, nu, m, j, k) -> coefficient.

    Coefficients are Python complex (or real) numbers.  Exact zeros and
    keys above the cap are never stored.  A subclass names its grading (``_GRADING``), exposes the
    cap as ``max_<grading>`` and supplies ``__mul__``.  Polynomials of
    different subclasses never compare equal or combine.
    """

    __slots__ = ("dim", "_cap", "_terms")
    _GRADING = "grade"

    def __init__(self, dim, terms=None, cap=INFINITE):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.dim = int(dim)
        self._cap = cap
        store = {}
        for key, c in (terms or {}).items():
            key = _validate_key(key, self.dim)
            if not c or key_grade(key) > cap:
                continue
            store[key] = store[key] + c if key in store else c
            if not store[key]:
                del store[key]
        self._terms = store

    @classmethod
    def _trusted(cls, dim, terms, cap):
        """Build from canonical keys of grade <= ``cap`` (library use).

        Keys are not re-validated and their grades not checked: the kernels
        skip every term pair above the cap, and the other library operations
        preserve grade.  Exact zeros are still dropped: Lie series stop on an
        empty term and term counts depend on it.  A caller that can raise a
        grade filters with :func:`_within` first.
        """
        self = object.__new__(cls)
        self.dim = dim
        self._cap = cap
        self._terms = {key: c for key, c in terms.items() if c}
        return self

    # -- constructors; ``cap`` is passed on as the subclass constructor takes it

    @classmethod
    def zero(cls, dim, *cap, **cap_kw):
        return cls(dim, None, *cap, **cap_kw)

    @classmethod
    def constant(cls, dim, c, *cap, **cap_kw):
        z = (0,) * dim
        return cls(dim, {(z, z, 0, 0, 0): c}, *cap, **cap_kw)

    # -- accessors ---------------------------------------------------------

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def coeff(self, key):
        """Stored coefficient of ``key`` (0 if absent)."""
        mu, nu, m, j, k = key
        return self._terms.get((tuple(mu), tuple(nu), m, j, k), 0)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.dim == other.dim and self._terms == other._terms

    def __repr__(self):
        return (
            f"{type(self).__name__}(dim={self.dim}, terms={len(self._terms)}, "
            f"max_{self._GRADING}={self._cap})"
        )

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_dims(self, other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out[key] + c if key in out else c
        cap = min(self._cap, other._cap)
        if self._cap != other._cap:
            out = _within(out, cap)
        return self._trusted(self.dim, out, cap)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._trusted(self.dim, {key: -c for key, c in self._terms.items()}, self._cap)

    def scaled(self, scalar):
        """Polynomial multiplied by a scalar coefficient."""
        return self._trusted(
            self.dim, {key: c * scalar for key, c in self._terms.items()}, self._cap
        )

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    # -- grading and slicing -------------------------------------------------

    def min_grade(self):
        """Smallest stored key grade (math.inf for the zero polynomial)."""
        return min(map(key_grade, self._terms), default=INFINITE)

    def filtered(self, pred):
        return self._trusted(
            self.dim, {key: c for key, c in self._terms.items() if pred(key)}, self._cap
        )

    def truncated(self, cap):
        return self._trusted(self.dim, _within(self._terms, cap), cap)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- serialization ---------------------------------------------------------

    def to_records(self):
        """Sorted list of plain-dict records (bit-exact round trip)."""
        recs = []
        for key in sorted(self._terms, key=_sort_token):
            mu, nu, m, j, k = key
            c = complex(self._terms[key])
            recs.append(
                {"mu": list(mu), "nu": list(nu), "m": m, "j": j, "k": k, "re": c.real, "im": c.imag}
            )
        return recs

    @classmethod
    def from_records(cls, dim, records, *cap, **cap_kw):
        """Inverse of :meth:`to_records`; keys are validated like user input."""
        terms = {}
        for r in records:
            key = (tuple(r["mu"]), tuple(r["nu"]), r.get("m", 0), r.get("j", 0), r.get("k", 0))
            terms[key] = terms.get(key, 0) + complex(r["re"], r.get("im", 0.0))
        return cls(dim, terms, *cap, **cap_kw)

    def to_json(self) -> str:
        cap = None if self._cap == INFINITE else self._cap
        return json.dumps(
            {"dim": self.dim, f"max_{self._GRADING}": cap, "terms": self.to_records()},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text):
        blob = json.loads(text)
        cap = blob.get(f"max_{cls._GRADING}")
        return cls.from_records(blob["dim"], blob["terms"], INFINITE if cap is None else cap)


# -- the graded normal-form engine ---------------------------------------------


def check_quadratic_part(H, h0, tol=1e-12) -> float:
    """Check that the grade <= 2 slice of H is E + h0 with E real; return E.

    ``h0`` is the route's normalized quadratic part without a constant
    (``h0_series(rot)`` or ``h0_word(rot)``).  Raises ValueError listing every
    offending key otherwise.
    """
    if H.dim != h0.dim:
        raise ValueError("Hamiltonian and rotation data dimension mismatch")
    zero = (0,) * H.dim
    energy = H._terms.get((zero, zero, 0, 0, 0), 0.0)
    expected = {**h0._terms, (zero, zero, 0, 0, 0): energy}
    defects = [f"energy term not real: {energy}"] if abs(complex(energy).imag) > tol else []
    low = [key for key in H._terms.keys() | expected.keys() if key_grade(key) <= 2]
    for key in sorted(low, key=_sort_token):
        got, want = H._terms.get(key, 0.0), expected.get(key, 0.0)
        if abs(got - want) > tol:
            defects.append(f"key {key}: expected {want}, found {got}")
    if defects:
        raise ValueError(
            f"{H._GRADING} <= 2 slice is not the normalized quadratic part: " + "; ".join(defects)
        )
    return complex(energy).real


def solve_homological(G, rot, eigenvalue, to_normal_form, margin_threshold=1e-9):
    """Solve ad_{H0} F = G + G1 term by term (the body of both solvers).

    ``eigenvalue(theta, key)`` is the algebra's closed-form ad_{H0}
    eigenvalue and ``to_normal_form`` maps a resonant polynomial to its
    NormalForm.  Returns (F, G1): F holds the non-resonant terms of G divided
    by their eigenvalues, G1 the NormalForm of minus the resonant part.

    Raises
    ------
    ResonanceError
        If |eigenvalue| < margin_threshold at a non-resonant key, reporting
        the offending Fourier shift (mu - nu, m).
    """
    if G.dim != rot.dim:
        raise ValueError("dimension mismatch")
    rot.require_order(
        max((sum(map(abs, _sub_idx(key[0], key[1]))) for key in G.keys()), default=0)
    )
    f_terms = {}
    resonant = {}
    for key, c in G.items():
        if is_resonant_key(key):
            resonant[key] = -c
            continue
        lam = eigenvalue(rot.theta, key)
        if abs(lam) < margin_threshold:
            raise ResonanceError(
                f"small divisor |{lam:.3e}| < {margin_threshold:g} at "
                f"(mu - nu, m) = ({_sub_idx(key[0], key[1])}, {key[2]})"
            )
        f_terms[key] = c / lam
    F = G._trusted(G.dim, f_terms, G._cap)
    return F, to_normal_form(G._trusted(G.dim, resonant, G._cap))


def lie_series(H, F, bracket, max_grade=None):
    """sum_k (1/k!) ad_F^k H with ad_F = bracket(F, ., cap), truncated at cap.

    ``cap`` is the finer of H's cap and ``max_grade``.  Requires the minimal
    grade of F to be >= 3: each bracket drops the grade sum by 2, so every
    application of ad_F gains at least one grade unit and the series ends
    exactly on the truncation.
    """
    cap = H._cap if max_grade is None else min(H._cap, max_grade)
    grading = H._GRADING
    if cap == INFINITE:
        raise ValueError(f"the Lie series needs a finite truncation {grading}")
    if F and F.min_grade() < 3:
        raise NonNilpotentError(
            f"generator has a term of {grading} {F.min_grade()} < 3; "
            "the Lie series would not terminate on the truncation"
        )
    total = H.truncated(cap)
    term = total
    k = 0
    while term:
        k += 1
        if k > cap + 2:  # unreachable given the grade gain; hard stop
            raise NonNilpotentError("Lie series failed to terminate")
        term = bracket(F, term, cap).scaled(1.0 / k)
        total = total + term
    return total


def birkhoff_sweep(H, rot, order, work_grade, h0, solve, conjugate, to_normal_form):
    """The graded normal-form iteration of all three routes.

    For g = 3..order the non-resonant grade-g terms of the current
    Hamiltonian are removed by one solve ``solve(G) -> (F, G1)`` and one
    conjugation ``conjugate(cur, F, work) -> cur``, with the working cap
    ``work = max(order, work_grade)``.  Returns ``(nf, steps, remainder)``:
    ``to_normal_form`` of the resonant terms of grade <= order, the
    ``(g, F)`` pairs in sweep order, and the conjugated Hamiltonian minus
    those resonant terms (grades > order plus sub-tolerance residue).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    work = max(order, work_grade if work_grade is not None else order)
    check_quadratic_part(H, h0)
    rot.require_order(order)
    cur = H.truncated(work)
    steps = []
    for g in range(3, order + 1):
        G = cur.filtered(lambda key: key_grade(key) == g and not is_resonant_key(key))
        if not G:
            continue
        F, _ = solve(G)
        cur = conjugate(cur, F, work)
        steps.append((g, F))
    resonant = cur.filtered(lambda key: is_resonant_key(key) and key_grade(key) <= order)
    return to_normal_form(resonant), steps, cur - resonant
