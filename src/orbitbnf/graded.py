"""Sparse graded polynomials and the graded Birkhoff sweep shared by every route.

Both algebras of the package store the same data: a dict from term keys
``(mu, nu, m, j, k)`` to coefficients, graded by ``|mu| + |nu| + 2j + 2k``
(``tau``/``D_t`` and ``hbar`` occupy two slots each) and truncated above a
cap.  :class:`GradedPoly` holds that storage and everything that does not
depend on the product: construction, linear structure, caps, slices and
records.  :class:`~orbitbnf.series.FTSeries` (commutative symbols,
cap ``max_weight``) and :class:`~orbitbnf.words.WordPoly` (normal-ordered
words, cap ``max_grade``) add their products and named constructors.

A polynomial stores its terms in one form: a packed-key dict.  Each key
is a single int with 8-bit fields (:func:`_layout`), so the key of a term a
product kernel generates is one integer add of the operand keys and an
offset.  The fields hold grades up to :data:`_MAX_GRADE` (255) and Fourier
modes ``|m|`` up to :data:`_MAX_MODE` (127).  Tuple keys reach this
storage only through the validating constructor, which packs one key at a
time (:meth:`GradedPoly.__init__`): a key past these bounds or a coefficient
that is not finite raises ValueError there.  Every product kernel starts
from one call set-up, :func:`_packed_operands`: it checks the operands'
class and dim, picks the call's cap and raises before any term is formed
when the output could pass the bounds.  Every number a caller passes to
the package is read by one of two rules kept here: integers by
:func:`_read_index`, reals by :func:`_read_real`.  A polynomial keeps the
rows of its terms (coefficient, grade, charge, packed key, index tuples and
blocks, :func:`_operand_rows`), so the generator of a Lie series, an
operand of every bracket of its series, is split once, and a call builds
only the short tuples its kernel reads.  Two polynomials meet on their
packed keys (:func:`_aligned`), their sum and difference below the smaller
cap.  Tuple keys appear only in a read-only view, built at most once per
polynomial from its rows (:attr:`GradedPoly._terms`), for ``items()``,
records and maps.  Keys are packed and split through one interned table of index
tuples per dim (:func:`_index_table`): it gives the packed block and the
sum of a tuple's fields, and turns a block back into the one tuple object
for it, so the views of every polynomial share their index tuples.
Both noncommutative products draw their integer structure constants and
their packed key offsets from one cached table, :func:`_contractions`: the
word product contracts ``a^nu`` against ``(a^+)^mu`` with ``l! C(mu, l)
C(nu, l)``, and the Moyal sum's transverse factor ``perm(n, x) perm(m, x) /
x!`` is the same integer ``x! C(n, x) C(m, x)``.  A kernel reads the table
through one row per a-term exponent tuple, keyed by the partner's packed
block, so a term pair costs one int-keyed lookup; the rows of every table
sit in one cache, :func:`_row`.
The table is built from :func:`_contraction_terms`, which the Wick/Weyl
heat flow of :mod:`~orbitbnf.bridge` reads as well.

The second half is the normal-form engine.  A route supplies its bracket,
the closed-form ad_{H0} eigenvalue of a key and the map from resonant terms
to a :class:`~orbitbnf.normalform.NormalForm`; :func:`birkhoff_sweep` does
the grade slicing, the homological solves, the Lie-series conjugations and
the final split into normal form and remainder.  The kernel of ad_{H0} is
the same in both algebras (:func:`is_resonant_key`).

The Lie series is symmetric by construction.  Its operands are symmetric
words (real symbols), so every bracket it forms is symmetric, and every
product kernel adds the charges ``|mu| - |nu|`` of a term pair.  A kernel
called with ``half=True`` forms only the pairs whose charges sum to
``<= 0`` (:func:`_packed_operands`), and :func:`lie_series` fills the
charge > 0 part in from the mirror, formed on packed keys: the adjoint of a
word, the conjugate of a symbol.  Kernel calls without ``half`` form every
pair.  A polynomial the sweep built exactly symmetric records it
(:func:`symmetrized`), so the next Lie series does not check it again.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import numbers
import operator

from .errors import NonNilpotentError, ResonanceError

INFINITE = math.inf


def key_grade(key) -> int:
    """Grade |mu| + |nu| + 2j + 2k of a term key (tau/D_t and hbar count 2).

    The product kernels compute the same grade inline, in :func:`_operand_rows`.
    """
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


# -- packed keys of the product kernels ------------------------------------------
#
# A packed key (mu, nu, m, j, k) is one int with fields of _WIDTH bits, lowest
# first: mu_0..mu_{n-1}, nu_0..nu_{n-1}, m + _BIAS, j, k.  Packing is linear,
# so the key of a product term is the sum of the packed operand keys and
# packed offsets, less one bias, and no tuple is built per generated term.
# The mu and nu fields of a key are the packed blocks of its index tuples,
# read from the interned table of :func:`_index_table`.  No field of a key of
# grade <= _MAX_GRADE exceeds its grade, and m + _BIAS lies in 1 .. 255 for
# |m| <= _MAX_MODE, so such keys pack one-to-one.

_WIDTH = 8
_MASK = (1 << _WIDTH) - 1
_BIAS = 1 << (_WIDTH - 1)
_MAX_GRADE = _MASK
_MAX_MODE = _BIAS - 1


def _check_bounds(grade, mode, what):
    """ValueError if ``grade`` passes :data:`_MAX_GRADE` or ``mode`` :data:`_MAX_MODE`."""
    if grade > _MAX_GRADE or mode > _MAX_MODE:
        raise ValueError(
            f"{what} grade {grade} and |m| {mode}, past the packed-key bounds "
            f"grade <= {_MAX_GRADE} and |m| <= {_MAX_MODE}"
        )


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)``, once.

    A hit is a plain dict lookup; only a miss calls ``fill``.
    """

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@functools.lru_cache(maxsize=None)
def _index_table(dim):
    """The interned index tuples of ``dim`` fields: ``(blocks, tuples, sums)``.

    ``blocks`` maps an index tuple to its packed block (field i holds entry
    i) and its sum; ``tuples`` maps a block back to the one tuple object for
    it, and ``sums`` a block to the sum of its fields.  ``tuples`` creates
    the index tuples of every split key, so the tuple keys of every view
    share their index tuples, and dict lookups on them compare by identity
    first.  The grade cap bounds the entries: a few hundred at most per
    table.
    """
    blocks = _Table(lambda idx: (sum(v << (i * _WIDTH) for i, v in enumerate(idx)), sum(idx)))

    def decode(block):
        # a decoded tuple enters ``blocks`` too, so it packs again for free
        idx = tuple((block >> (i * _WIDTH)) & _MASK for i in range(dim))
        blocks[idx] = (block, sum(idx))
        return idx

    tuples = _Table(decode)
    return blocks, tuples, _Table(lambda block: sum(tuples[block]))


def _layout(dim):
    """``(nu shift, tail shift, block mask)`` of packed keys of ``dim`` modes.

    A key is ``mu block + (nu block << nu shift) + (tail << tail shift)``
    with ``tail = m + _BIAS + (j << _WIDTH) + (k << 2 _WIDTH)``.  Packing is
    linear, so the key of a product term is the sum of the operand keys and
    packed offsets, less one bias.
    """
    nu_shift = dim * _WIDTH
    return nu_shift, 2 * nu_shift, (1 << nu_shift) - 1


# The fields of an operand row, in order (see :func:`_operand_rows`).
(_C, _GRADE, _CHARGE, _KEY, _MU, _NU, _MU_BLOCK, _NU_BLOCK, _M, _J, _K) = range(11)


def _is_resonant_row(r) -> bool:
    """:func:`is_resonant_key` of an operand row: equal mu and nu blocks and m = 0."""
    return r[_MU_BLOCK] == r[_NU_BLOCK] and not r[_M]


def _operand_rows(poly):
    """The rows of ``poly``'s terms, in storage order; cached on ``poly``.

    A row is ``(c, grade, charge, key, mu, nu, mu block, nu block, m, j,
    k)`` (indices ``_C`` .. ``_K``): the grade is :func:`key_grade`, the
    charge ``|mu| - |nu|``, and the packed key carries the bias of m, as the
    storage does (see :func:`_layout`).  A polynomial is immutable, so it
    keeps its rows, and an operand of many kernel calls (the generator of a
    Lie series) is split once.
    """
    if poly._rows is not None:
        return poly._rows
    nu_shift, tail_shift, block_mask = _layout(poly.dim)
    blocks, tuples = _index_table(poly.dim)[:2]
    rows = []
    for p, c in poly._packed.items():
        mu, nu = tuples[p & block_mask], tuples[(p >> nu_shift) & block_mask]
        (mu_block, mu_sum), (nu_block, nu_sum) = blocks[mu], blocks[nu]
        tail = p >> tail_shift
        j, k = (tail >> _WIDTH) & _MASK, tail >> (2 * _WIDTH)
        rows.append(
            (c, mu_sum + nu_sum + 2 * (j + k), mu_sum - nu_sum, p, mu, nu,
             mu_block, nu_block, (tail & _MASK) - _BIAS, j, k)
        )
    poly._rows = rows
    return rows


def _bounds(poly):
    """``(largest grade, largest |m|)`` of ``poly``'s terms (0 for no terms); cached."""
    if poly._bounds is None:
        rows = _operand_rows(poly)
        poly._bounds = (
            max(map(operator.itemgetter(_GRADE), rows), default=0),
            max(map(abs, map(operator.itemgetter(_M), rows)), default=0),
        )
    return poly._bounds


def _keys_at(poly, cap):
    """``poly``'s packed-key dict without terms above ``cap``.

    The storage itself, read and not copied, when its cap is not above
    ``cap``; otherwise read from its rows.
    """
    if cap >= poly._cap:
        return poly._packed
    return {r[_KEY]: r[_C] for r in _operand_rows(poly) if r[_GRADE] <= cap}


def _aligned(a, b, cap=INFINITE):
    """``(a's keys, b's keys)`` without terms above ``cap``.

    The one way two polynomials meet (sums, differences, equality and
    coefficient gaps): packing is one-to-one, so packed keys compare as
    tuple keys do.
    """
    _check_dims(a, b)
    return _keys_at(a, cap), _keys_at(b, cap)


def _packed_operands(a, b, cap, drop, half, a_fields, b_fields, keep=None):
    """``(a-terms, partners, bias, cap)`` of one product kernel call.

    The one call set-up of every product kernel.  The operands must share
    class and dim (:func:`_check_dims`).  An explicit ``cap``
    (:func:`_read_index`) overrides the operands' caps, as the caller
    asserts they are complete that far; with ``None`` the smaller operand
    cap applies.  The kernel stores its output under the returned cap.

    The terms are the operands' rows (:func:`_operand_rows`).  An a-term is
    the tuple of its grade g, its charge q and the row fields ``a_fields``,
    and ``partners[g, q]`` lists, as tuples of the row fields ``b_fields``,
    the b-terms that an a-term of that grade and charge meets, for a product
    that lowers the grade sum of a term pair by ``drop`` (2 for a bracket).
    A kernel loops over these lists instead of testing every term pair: in
    the Lie series most pairs lie above the cap.  Each operand is split once
    (:func:`_operand_rows` caches its rows), and a call builds only the
    short tuples its kernel reads.  Every packed key carries the bias of m,
    and a sum of two keys must carry it once (:func:`_layout`), so a kernel
    subtracts ``bias`` once from each a-term's key.  ``keep``, a pair of
    predicates on a-rows and b-rows, leaves out the terms that form nothing.

    The partners of an a-term are the b-terms that fit under the cap with
    it, in storage order.  With ``half`` they are the b-terms that fit and
    have charge ``<= -q``: a prefix of the fitting b-terms sorted by charge
    (a stable sort, so storage order within a charge).  Every product in
    the package adds the charges of a term pair, so a half call forms
    exactly the pairs whose output has charge ``<= 0``.

    Every product in the package keeps the total grade additive up to that
    drop, so an output field (mu_i, nu_i, j, k) never exceeds
    ``min(cap, ga + gb)``, with ``ga`` and ``gb`` the operands' largest
    grades, and an output ``|m|`` never exceeds the sum of their largest
    ``|m|``.  A call whose bounds pass the packed-key bounds raises
    ValueError before it forms any term (:func:`_check_bounds`), so no
    field can overflow, also under an infinite cap.
    """
    _check_dims(a, b)
    cap = min(a._cap, b._cap) if cap is None else _read_index(cap, f"max_{a._GRADING}", infinite=True)
    if a and b:
        (ga, ma), (gb, mb) = _bounds(a), _bounds(b)
        _check_bounds(min(cap, ga + gb), ma + mb, "the product's keys could reach")
    a_rows, b_rows = _operand_rows(a), _operand_rows(b)
    if keep is not None:
        a_rows, b_rows = list(filter(keep[0], a_rows)), list(filter(keep[1], b_rows))
    bias = _BIAS << _layout(a.dim)[1]
    a_terms = list(map(operator.itemgetter(_GRADE, _CHARGE, *a_fields), a_rows))
    b_terms = list(map(operator.itemgetter(*b_fields), b_rows))
    b_grades = list(map(operator.itemgetter(_GRADE), b_rows))
    b_top = max(b_grades, default=0)
    charges_of = {}
    for g, q in set(map(operator.itemgetter(_GRADE, _CHARGE), a_rows)):
        charges_of.setdefault(g, []).append(q)
    partners = {}
    if not half:
        for g, charges in charges_of.items():
            room = cap + drop - g
            fit = b_terms
            if b_top > room:
                fit = [t for t, gb in zip(b_terms, b_grades) if gb <= room]
            partners.update(dict.fromkeys([(g, q) for q in charges], fit))
        return a_terms, partners, bias, cap
    b_charges = map(operator.itemgetter(_CHARGE), b_rows)
    by_charge = sorted(zip(b_charges, b_grades, b_terms), key=operator.itemgetter(0))
    for g, charges in charges_of.items():
        room = cap + drop - g
        fit = by_charge if b_top <= room else [t for t in by_charge if t[1] <= room]
        fit_charges = list(map(operator.itemgetter(0), fit))
        fit_terms = list(map(operator.itemgetter(2), fit))
        for q in charges:
            partners[g, q] = fit_terms[: bisect.bisect_right(fit_charges, -q)]
    return a_terms, partners, bias, cap


def _field_units(dim):
    """The packed units of the fields: (mu units, nu units, m, j, k)."""
    units = [1 << (f * _WIDTH) for f in range(2 * dim + 3)]
    return units[:dim], units[dim : 2 * dim], units[2 * dim], units[2 * dim + 1], units[2 * dim + 2]


def _from_packed(cls, dim, out, cap):
    """The ``cls`` polynomial of a packed-key dict ``out``.

    Exact zeros are deleted from ``out`` in place and the polynomial takes
    ``out`` as its storage.
    """
    if 0 in out.values():
        for p in [p for p, c in out.items() if not c]:
            del out[p]
    return cls._wrap(dim, out, cap)


def _merge(out, terms, sign):
    """Add (``sign`` 1) or subtract (``sign`` -1) ``terms`` into ``out`` in place.

    New keys go to the end in the order of ``terms``, and a key whose sum is
    an exact zero is deleted.
    """
    get = out.get
    combine, fresh = (operator.add, operator.pos) if sign > 0 else (operator.sub, operator.neg)
    for key, c in terms.items():
        prev = get(key)
        if prev is None:
            out[key] = fresh(c)
        elif total := combine(prev, c):
            out[key] = total
        else:
            del out[key]
    return out


def _contraction_terms(a, b):
    """``(l, |l|, prod_i l_i! C(a_i, l_i) C(b_i, l_i))`` for ``0 <= l <= min(a, b)``.

    In ``itertools.product`` order.  The one source of these integers: the
    word product, the Moyal sum (through :func:`_contractions`) and the
    Wick/Weyl heat flow of :mod:`~orbitbnf.bridge` all read them.
    """
    for l in itertools.product(*(range(min(x, y) + 1) for x, y in zip(a, b))):
        f_l = 1
        for li, x, y in zip(l, a, b):
            f_l *= math.factorial(li) * math.comb(x, li) * math.comb(y, li)
        yield l, sum(l), f_l


@functools.lru_cache(maxsize=None)
def _contractions(nu1, mu2):
    """Contraction table of a^{nu1} against (a^+)^{mu2}, shared by both products.

    One entry ``(|l|, f_l, delta_l)`` per term of
    ``_contraction_terms(nu1, mu2)``, in its order, with the integer
    ``f_l = prod_i l_i! C(nu1_i, l_i) C(mu2_i, l_i)`` and the packed key offset
    ``delta_l`` that lowers every mu_i and nu_i by l_i and raises k by |l|.
    The word product reads it for the pair (nu1, mu2) of its operands.  The
    Moyal sum reads it twice, for (nu1, mu2) and (mu1, nu2), because its
    transverse factor ``perm(n, x) perm(m, x) / x!`` equals ``x! C(n, x)
    C(m, x)``, and both of its contractions lower mu and nu alike.  Keyed on
    exponents only, which the grade cap bounds.
    """
    mu_units, nu_units, _m, _j, k_unit = _field_units(len(nu1))
    pair_units = list(map(operator.add, mu_units, nu_units))
    return tuple(
        (s, f_l, s * k_unit - sum(map(operator.mul, l, pair_units)))
        for l, s, f_l in _contraction_terms(nu1, mu2)
    )


@functools.lru_cache(maxsize=None)
def _row(table, exps):
    """Partner index block -> ``table(exps, partner)``: the one cache of
    contraction-table rows.

    One row of a contraction table holds the entries of one exponent tuple
    ``exps`` against every partner, keyed by the partner's packed block
    (decoded through :func:`_index_table` on a miss).  A kernel looks a row
    up once per a-term and an entry once per term pair, so a pair costs one
    int-keyed lookup instead of a cache lookup hashed on two index tuples.
    The word product and the Moyal sum's X table share ``_row(_contractions, nu1)``.
    """
    tuples = _index_table(len(exps))[1]
    return _Table(lambda block: table(exps, tuples[block]))


def _contracted(nu1, mu2):
    """:func:`_contractions` without its first entry, the juxtaposition l = 0."""
    return _contractions(nu1, mu2)[1:]


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


def _read_index(value, what, least=0, infinite=False):
    """``value`` as a plain int >= ``least`` (numpy ints too), or ``math.inf``
    if ``infinite``; ValueError naming ``what`` otherwise.  The rule for every
    integer a caller passes: dims, caps, hbar orders, orders, cuts and indices.

    Read with ``operator.index``, as keys are: ``int()`` would read 1.5 as
    1, and a NaN cap would keep every term and pass the packed-key bounds.
    """
    if infinite and value == INFINITE:
        return INFINITE
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None
    if value < least:
        raise ValueError(f"{what} must be >= {least}, not {value}")
    return value


def _read_real(value, what, sign=""):
    """``value`` as a finite float, ``> 0`` or ``>= 0`` as ``sign`` says
    (``"> 0"``, ``">= 0"`` or ``""`` for any sign); ValueError naming
    ``what`` otherwise.  The rule for every real number a caller passes:
    thresholds, tolerances, ``hbar`` and widths are ``> 0``, margins and
    floors ``>= 0``.

    Ints and numpy scalars are read, strings are not (``float()`` would
    parse one).  A NaN threshold would switch off its guard, as every
    comparison with NaN is False.
    """
    if not isinstance(value, (float, int, numbers.Real)):  # float and int first: fast
        raise ValueError(f"{what} must be a real number, not {value!r}")
    number = float(value)
    if not math.isfinite(number) or (sign and (number < 0 or number == 0 and sign == "> 0")):
        raise ValueError(f"{what} must be finite{' and ' + sign if sign else ''}, not {value!r}")
    return number


def _check_coeff(c, key):
    """ValueError naming ``key`` unless ``cmath.isfinite`` reads ``c`` as
    finite: the rule for every coefficient a constructor takes, so a string
    is refused, not parsed."""
    try:
        finite = cmath.isfinite(c)
    except TypeError:
        raise ValueError(f"the coefficient of {key} must be a number, not {c!r}") from None
    if not finite:
        raise ValueError(f"the coefficient of {key} must be finite, not {c!r}")


def _check_dims(a, b):
    if type(a) is not type(b):
        raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def max_coeff_difference(a, b) -> float:
    """max over all keys of |a[key] - b[key]|."""
    a, b = _aligned(a, b)
    keys = a.keys() | b.keys()
    zeros = itertools.repeat(0)
    gaps = map(operator.sub, map(a.get, keys, zeros), map(b.get, keys, zeros))
    return max(map(abs, gaps), default=0.0)


class GradedPoly:
    """Immutable sparse graded polynomial: key (mu, nu, m, j, k) -> coefficient.

    Coefficients are Python complex (or real) numbers.  Exact zeros and
    keys above the cap are never stored.  A subclass names its grading
    (``_GRADING``), its symmetry and mirror (``_SYMMETRY``, ``_MIRROR``), exposes
    the cap as ``max_<grading>`` and supplies ``_mirrored``, the antilinear
    involution that maps a key of charge ``|mu| - |nu|`` to keys of the
    opposite charge (the adjoint of a word, the conjugate of a symbol),
    formed on packed keys.  Polynomials of different subclasses never
    compare equal or combine.  ``*`` takes scalars on either side; only
    :class:`~orbitbnf.words.WordPoly` also reads it between polynomials, as
    its word product.

    The terms are stored as ``_packed``, a packed-key dict in insertion
    order (see :func:`_layout`), and nothing else: every operation reads
    the packed keys or their rows.  A key past the packed-key bounds
    (grade 255, ``|m|`` 127) or a coefficient that is not finite raises
    ValueError at construction.  The tuple-keyed dict that ``items()``,
    ``keys()``, :meth:`coeff`, records and maps read is a view
    (:attr:`_terms`), built on the first read and cached in ``_view``.

    Two more slots cache what the value determines: ``_rows``, the kernel
    operand rows (:func:`_operand_rows`), with ``_bounds``; and ``_exact``,
    set on a polynomial built exactly symmetric (:func:`symmetrized`), which
    :func:`symmetrized` then returns as it is.
    """

    __slots__ = ("dim", "_cap", "_packed", "_view", "_rows", "_bounds", "_exact")
    _GRADING = "grade"
    _SYMMETRY = "symmetric"

    def __init__(self, dim, terms=None, cap=INFINITE):
        """Pack ``terms`` (tuple key -> coefficient), one key at a time.

        The only code that turns tuple keys into storage.  ``cap`` must be
        an integer >= 0 or ``math.inf`` (:func:`_read_index`).  Each key is
        validated (:func:`_validate_key`) and its coefficient must be
        finite; a zero coefficient or a grade above ``cap`` skips the key,
        and a key past the packed-key bounds raises ValueError
        (:func:`_check_bounds`) before it is packed, even when its
        coefficients would cancel.  Repeated keys are summed in place, and a
        sum that reaches an exact zero is deleted.
        """
        self.dim = _read_index(dim, "dim")
        self._cap = cap = _read_index(cap, f"max_{self._GRADING}", infinite=True)
        self._view = self._rows = self._bounds = None
        self._exact = False
        blocks = _index_table(self.dim)[0]
        nu_shift, tail_shift, _block_mask = _layout(self.dim)
        packed = {}
        for key, c in (terms or {}).items():
            mu, nu, m, j, k = key = _validate_key(key, self.dim)
            _check_coeff(c, key)
            grade = key_grade(key)
            if not c or grade > cap:
                continue
            _check_bounds(grade, abs(m), "a key reaches")
            tail = m + _BIAS + (j << _WIDTH) + (k << (2 * _WIDTH))
            p = blocks[mu][0] + (blocks[nu][0] << nu_shift) + (tail << tail_shift)
            prev = packed.get(p)
            if prev is None:
                packed[p] = c
            elif total := prev + c:
                packed[p] = total
            else:
                del packed[p]
        self._packed = packed

    @classmethod
    def _wrap(cls, dim, packed, cap):
        """Instance owning the packed-key dict ``packed``.

        Its keys carry the bias of m (see :func:`_layout`), have grade <=
        cap and lie within the packed-key bounds, and no coefficient is an
        exact zero.
        """
        self = object.__new__(cls)
        self.dim = dim
        self._cap = cap
        self._packed = packed
        self._view = self._rows = self._bounds = None
        self._exact = False
        return self

    @property
    def _terms(self):
        """The read-only tuple-keyed view of the terms, in storage order.

        Built once, from the rows (:func:`_operand_rows`), and never the
        source of truth.
        """
        if self._view is None:
            self._view = {
                (r[_MU], r[_NU], r[_M], r[_J], r[_K]): r[_C]
                for r in _operand_rows(self)
            }
        return self._view

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
        return len(self._packed)

    def __bool__(self):
        return bool(self._packed)

    def __eq__(self, other):
        if type(other) is not type(self) or self.dim != other.dim:
            return False
        a, b = _aligned(self, other)
        return a == b

    def mirror(self):
        """The mirror: the adjoint of a word, the conjugate of a symbol."""
        return self._mirrored()[0]

    def __repr__(self):
        return (
            f"{type(self).__name__}(dim={self.dim}, terms={len(self)}, "
            f"max_{self._GRADING}={self._cap})"
        )

    # -- linear structure ----------------------------------------------------

    def _merged(self, other, sign):
        """``self + sign * other`` in one merge loop (:func:`_merge`) on packed keys.

        Terms above the smaller cap are left out (:func:`_aligned`).  The sum
        or difference of two exactly symmetric polynomials is exactly
        symmetric (:func:`symmetrized`).
        """
        if type(other) is not type(self):
            return NotImplemented
        cap = min(self._cap, other._cap)
        a, b = _aligned(self, other, cap)
        out = self._wrap(self.dim, _merge(dict(a), b, sign), cap)
        out._exact = self._exact and other._exact
        return out

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return self._wrap(self.dim, {p: -c for p, c in self._packed.items()}, self._cap)

    def scaled(self, scalar):
        """Polynomial multiplied by a scalar coefficient; ValueError unless it is finite."""
        if not cmath.isfinite(scalar):
            raise ValueError(f"the scalar must be finite, not {scalar!r}")
        return _from_packed(
            type(self), self.dim, {p: c * scalar for p, c in self._packed.items()}, self._cap
        )

    def __mul__(self, scalar):
        """The scalar multiple (a product of two polynomials is a kernel call)."""
        if isinstance(scalar, GradedPoly):
            return NotImplemented
        return self.scaled(scalar)

    __rmul__ = __mul__

    # -- grading and slicing -------------------------------------------------

    def min_grade(self):
        """Smallest stored key grade (math.inf for the zero polynomial)."""
        rows = _operand_rows(self)
        return min(map(operator.itemgetter(_GRADE), rows), default=INFINITE)

    def _kept(self, keep):
        """The terms whose rows satisfy ``keep``, with the same cap."""
        kept = {r[_KEY]: r[_C] for r in _operand_rows(self) if keep(r)}
        return self._wrap(self.dim, kept, self._cap)

    def filtered(self, pred):
        """The terms whose tuple key satisfies ``pred``, with the same cap."""
        return self._kept(lambda r: pred((r[_MU], r[_NU], r[_M], r[_J], r[_K])))

    def truncated(self, cap):
        """The terms of grade <= cap, with cap ``cap`` (:func:`_read_index`); shares the
        storage when all fit."""
        cap = _read_index(cap, "cap", infinite=True)
        out = self._wrap(self.dim, _keys_at(self, cap), cap)
        if cap >= self._cap:  # the same storage: share its rows too
            out._rows = _operand_rows(self)
        out._exact = self._exact  # a grade slice of an exactly symmetric polynomial
        return out

    def max_abs_coeff(self) -> float:
        return max(map(abs, self._packed.values()), default=0.0)

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
        """Inverse of :meth:`to_records`; keys are validated like user input,
        and ``re``/``im`` are read by :func:`_read_real`."""
        terms = {}
        for r in records:
            key = (tuple(r["mu"]), tuple(r["nu"]), r.get("m", 0), r.get("j", 0), r.get("k", 0))
            real = _read_real(r["re"], "coefficient 're'")
            imag = _read_real(r.get("im", 0.0), "coefficient 'im'")
            terms[key] = terms.get(key, 0) + complex(real, imag)
        return cls(dim, terms, *cap, **cap_kw)


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
    by their eigenvalues, G1 the NormalForm of minus the resonant part.  Both
    are formed on G's packed keys, read from its rows.

    Raises
    ------
    ResonanceError
        If |eigenvalue| < margin_threshold at a non-resonant key, reporting
        the offending Fourier shift (mu - nu, m).
    ValueError
        Unless margin_threshold is finite and > 0 (:func:`_read_real`): a
        NaN or negative one would switch the small-divisor guard off.
    """
    margin_threshold = _read_real(margin_threshold, "margin_threshold", "> 0")
    if G.dim != rot.dim:
        raise ValueError("dimension mismatch")
    rows = _operand_rows(G)
    rot.require_order(
        max((sum(map(abs, map(operator.sub, r[_MU], r[_NU]))) for r in rows), default=0)
    )
    f_terms = {}
    resonant = {}
    for r in rows:
        if _is_resonant_row(r):
            resonant[r[_KEY]] = -r[_C]
            continue
        key = (r[_MU], r[_NU], r[_M], r[_J], r[_K])
        lam = eigenvalue(rot.theta, key)
        if abs(lam) < margin_threshold:
            raise ResonanceError(
                f"small divisor |{lam:.3e}| < {margin_threshold:g} at "
                f"(mu - nu, m) = ({_sub_idx(key[0], key[1])}, {key[2]})"
            )
        f_terms[r[_KEY]] = r[_C] / lam
    F = _from_packed(type(G), G.dim, f_terms, G._cap)
    return F, to_normal_form(G._wrap(G.dim, resonant, G._cap))


def _check_symmetric(a, mirror, what):
    """The symmetry defect of ``a``; ValueError above 1e-12 of its scale."""
    defect = max_coeff_difference(a, mirror)
    if defect > 1e-12 * (1.0 + a.max_abs_coeff()):
        raise ValueError(
            f"{what} is not {a._SYMMETRY}: {a._MIRROR} defect {defect:.3e} exceeds 1e-12 * scale"
        )
    return defect


def require_symmetric(a, what):
    """Raise ValueError unless ``a`` equals its mirror to 1e-12 of its scale.

    The mirror is the adjoint of a word and the conjugate of a symbol, so
    this is the check for an adjoint-symmetric word and for a real symbol.
    """
    _check_symmetric(a, a.mirror(), what)


def symmetrized(a, what):
    """``(a + mirror(a)) / 2`` after the check of :func:`require_symmetric`.

    An ``a`` that equals its mirror exactly is returned as is.  The result
    is flagged exactly symmetric (``_exact``) when the mirror only permutes
    its keys and conjugates its coefficients: always for symbols, and for
    words without a ``D_t^j e^{imt}`` key (j, m != 0).  Then the average is
    exactly symmetric in floating point, and so are the sums, differences
    and grade slices (:meth:`~GradedPoly.truncated`) of flagged
    polynomials, which keep the flag; a flagged polynomial is returned as
    it is, without the check.  Every other operand is checked and averaged
    on every call.
    """
    if a._exact:
        return a
    mirror, permutes = a._mirrored()
    if _check_symmetric(a, mirror, what) != 0.0:
        a = (a + mirror).scaled(0.5)
    a._exact = permutes
    return a


def _filled(half, scale):
    """``scale`` times the symmetric bracket whose charge ``<= 0`` part is ``half``.

    With X- the charge < 0 part of ``half`` and X0 its charge-0 slice, the
    bracket is ``X- + mirror(X-) + (X0 + mirror(X0)) / 2``, formed here as
    ``Y + mirror(Y)`` with ``Y = X- + X0 / 2`` (the halving is exact).  Y,
    its mirror and the sum are formed on packed keys; the sum is flagged
    exactly symmetric as in :func:`symmetrized`.
    """
    dim = half.dim
    sums = _index_table(dim)[2]
    nu_shift, _tail_shift, block_mask = _layout(dim)
    zero_scale = 0.5 * scale
    y = {
        p: c * (zero_scale if sums[p & block_mask] == sums[(p >> nu_shift) & block_mask] else scale)
        for p, c in half._packed.items()
    }
    Y = half._wrap(dim, y, half._cap)
    mirror, permutes = Y._mirrored()
    out = Y + mirror  # the sum drops any exact zero of Y
    out._exact = permutes
    return out


def lie_series(H, F, bracket, max_grade=None):
    """sum_k (1/k!) ad_F^k H with ad_F = bracket(F, ., cap), truncated at cap.

    ``cap`` is the finer of H's cap and ``max_grade`` (an integer >= 0 or
    ``math.inf``, :func:`_read_index`).  Requires the minimal
    grade of F to be >= 3: each bracket drops the grade sum by 2, so every
    application of ad_F gains at least one grade unit and the series ends
    exactly on the truncation.

    Symmetric by construction.  H and F must be symmetric (real, for
    symbols) to 1e-12 of their scale, or ValueError is raised; each is then
    replaced once by its average with its mirror (:func:`symmetrized`,
    which returns an operand that the sweep built exactly symmetric as it
    is).  Every term ``ad_F^k H / k!`` is then symmetric, and every bracket
    adds the charges ``|mu| - |nu|`` of a term pair, so the output keys of
    charge > 0 are the mirror of those of charge < 0.  Each bracket is
    therefore called as ``bracket(F, X, cap, half=True)``, which forms only
    the term pairs whose charges sum to ``<= 0``, and :func:`_filled`
    restores the rest from the mirror.  The terms are merged into the
    running total in the order they are formed, on packed keys.
    """
    grading = H._GRADING
    if max_grade is None:
        cap = H._cap
    else:
        cap = min(H._cap, _read_index(max_grade, f"max_{grading}", infinite=True))
    if cap == INFINITE:
        raise ValueError(f"the Lie series needs a finite truncation {grading}")
    if F and F.min_grade() < 3:
        raise NonNilpotentError(
            f"generator has a term of {grading} {F.min_grade()} < 3; "
            "the Lie series would not terminate on the truncation"
        )
    F = symmetrized(F, "the generator")
    total = symmetrized(H.truncated(cap), "the conjugated operand")
    term = total
    k = 0
    while term:
        k += 1
        bracketed = _filled(bracket(F, term, cap, half=True), 1.0 / k)
        if k > 1:
            total = total + term
        term = bracketed
    return total


def birkhoff_sweep(
    H, rot, order, work_grade, margin_threshold, h0, solve, conjugate, to_normal_form
):
    """The graded normal-form iteration of all three routes.

    For g = 3..order the non-resonant grade-g terms of the current
    Hamiltonian are removed by one solve ``solve(G, margin_threshold) ->
    (F, G1)`` and one conjugation ``conjugate(cur, F, work) -> cur``, with
    the working cap ``work = max(order, work_grade)``.  ``order`` is an
    integer >= 2, ``work_grade`` None or an integer >= 0 (named
    ``work_<grading>``) and ``margin_threshold`` finite and > 0; all three
    are read before any work (:func:`_read_index`, :func:`_read_real`), so a
    sweep with nothing to solve rejects them too.  Returns ``(nf, generators,
    remainder)``: ``to_normal_form`` of the resonant terms of grade <= order,
    the generators F in sweep order (each on one grade slice, so
    ``F.min_grade()`` is its grade g), and the conjugated Hamiltonian minus
    those resonant terms (grades > order plus sub-tolerance residue).

    H must be symmetric (a real symbol, for the series routes) to 1e-12 of
    its scale, or ValueError is raised; the sweep starts from its average
    with its mirror, so the remainder is exactly symmetric whenever the
    mirror is exact (see :func:`symmetrized`).  Each slice is read from the
    rows of the current Hamiltonian, which its conjugation reads as well.
    """
    order = _read_index(order, "order", least=2)
    work = order if work_grade is None else _read_index(work_grade, f"work_{H._GRADING}")
    work = max(order, work)
    margin_threshold = _read_real(margin_threshold, "margin_threshold", "> 0")
    cur = symmetrized(H.truncated(work), "the Hamiltonian")
    check_quadratic_part(H, h0)
    rot.require_order(order)
    generators = []
    for g in range(3, order + 1):
        G = cur._kept(lambda r: r[_GRADE] == g and not _is_resonant_row(r))
        if not G:
            continue
        F, _ = solve(G, margin_threshold)
        cur = conjugate(cur, F, work)
        generators.append(F)
    resonant = cur._kept(lambda r: r[_GRADE] <= order and _is_resonant_row(r))
    return to_normal_form(resonant), generators, cur - resonant
