"""Sparse graded polynomials and the graded Birkhoff sweep shared by every route.

Both algebras of the package store the same data: a dict from term keys
``(mu, nu, m, j, k)`` to coefficients, graded by ``|mu| + |nu| + 2j + 2k``
(``tau``/``D_t`` and ``hbar`` occupy two slots each) and truncated above a
cap.  :class:`GradedPoly` holds that storage and everything that does not
depend on the product: construction, linear structure, caps, slices and
records.  :class:`~orbitbnf.series.FTSeries` (commutative symbols,
cap ``max_weight``) and :class:`~orbitbnf.words.WordPoly` (normal-ordered
words, cap ``max_grade``) add their products and named constructors.

The product kernels (word product, Moyal sum, Poisson bracket, pointwise
product) work on packed keys: for the duration of one call each key is a
single int with fixed-width fields (:func:`_packed_operands`), so the key
of a generated term is one integer add of the operand keys and an offset.
The width is chosen per call from the operands' grade and ``|m|`` bounds, so
no field overflows.  A kernel returns its packed-key dict, in the order the
terms were first generated, and the polynomial keeps it packed until its
keys are read (:func:`_from_packed`): length, truth, scale, negation and
the sum or difference of two results packed at one width and cap need no
tuple key, and the word commutator merges its two products on packed keys.
The first read of the terms (``items()``, records, maps, kernel operands)
decodes them once.  Keys are packed and split through one interned table of
index tuples per ``(dim, width)`` (:func:`_index_table`): it gives the
packed block and the sum of a tuple's fields, and turns a block back into
the one tuple object for it, so the outputs of every kernel share their
index tuples.  Both noncommutative products draw their integer structure
constants and their packed key offsets from one cached table,
:func:`_contractions`: the word product contracts ``a^nu`` against
``(a^+)^mu`` with ``l! C(mu, l) C(nu, l)``, and the Moyal sum's transverse
factor ``perm(n, x) perm(m, x) / x!`` is the same integer
``x! C(n, x) C(m, x)``.  The table is built from
:func:`_contraction_terms`, which the Wick/Weyl heat flow of
:mod:`~orbitbnf.bridge` reads as well.

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
charge > 0 part in from the mirror: the adjoint of a word, the conjugate
of a symbol.  Kernel calls without ``half`` form every pair.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
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
# Inside a kernel a key (mu, nu, m, j, k) is one int with fixed-width fields,
# lowest first: mu_0..mu_{n-1}, nu_0..nu_{n-1}, m + bias, j, k.  Packing is
# linear, so the key of a product term is the sum of the packed operand keys
# and packed offsets, and no tuple is built per generated term.  The left
# operand's keys carry the bias of m, the right operand's do not, so a sum
# carries it once.  The mu and nu fields of a key are the packed blocks of
# its index tuples, read from the interned table of :func:`_index_table`.

_MIN_WIDTH = 8


class _Blocks(dict):
    """Index tuple -> (packed block of its fields, sum); fills itself on a miss.

    An entry depends on its tuple alone.  The block is the integer sum of
    ``v_i << (i * width)``, exact also for a field of ``2**width`` or more,
    so packing stays linear; such a block may equal that of another tuple,
    which is why only :class:`_Tuples`, decoding blocks whose fields fit,
    makes the tuples that kernels output.
    """

    __slots__ = ("width",)

    def __init__(self, width):
        super().__init__()
        self.width = width

    def __missing__(self, idx):
        entry = self[idx] = (sum(v << (i * self.width) for i, v in enumerate(idx)), sum(idx))
        return entry


class _Tuples(dict):
    """Packed block -> the one index tuple for it; fills itself on a miss.

    A decoded tuple is entered into ``blocks`` as well, so that an output
    index tuple packs again without recomputing its block.
    """

    __slots__ = ("dim", "blocks")

    def __init__(self, dim, blocks):
        super().__init__()
        self.dim, self.blocks = dim, blocks

    def __missing__(self, block):
        width = self.blocks.width
        mask = (1 << width) - 1
        idx = self[block] = tuple((block >> (i * width)) & mask for i in range(self.dim))
        self.blocks[idx] = (block, sum(idx))
        return idx


@functools.lru_cache(maxsize=None)
def _index_table(dim, width):
    """The interned index tuples of ``dim`` fields of ``width`` bits: ``(blocks, tuples)``.

    ``blocks`` maps an index tuple to its packed block (field i holds entry
    i) and its sum; ``tuples`` maps a block back to the one tuple object for
    it.  Only ``tuples`` creates the tuples that kernels output, from blocks
    whose fields fit, so every decoded kernel key shares its index
    tuples with every other, and dict merges and lookups on them compare by
    identity first.  Keyed on the width as well, since the same block stands
    for different tuples at different widths.  The grade cap bounds the
    entries: a few hundred at most per table.
    """
    blocks = _Blocks(width)
    return blocks, _Tuples(dim, blocks)


def _operand_rows(poly, blocks):
    """``(key, c, grade, mu block, nu block, charge)`` per stored term, in storage order.

    The grade is :func:`key_grade` and the charge is ``|mu| - |nu|``, both
    computed from the table's index sums.
    """
    rows = []
    for key, c in poly._terms.items():
        mu_block, mu_sum = blocks[key[0]]
        nu_block, nu_sum = blocks[key[1]]
        rows.append(
            (key, c, mu_sum + nu_sum + 2 * (key[3] + key[4]), mu_block, nu_block, mu_sum - nu_sum)
        )
    return rows


def _pack(rows, dim, width, bias):
    """``(key, c, grade, packed key)`` per row; ``bias`` is added to each Fourier mode m.

    The fields are combined with ``+``, not ``|``: with no bias a negative m
    borrows from the fields above it, which the bias of the other operand
    repays in a sum.
    """
    nu_shift = dim * width
    tail_shift = 2 * nu_shift
    k_shift = 2 * width
    return [
        (
            key,
            c,
            g,
            mu_block
            + (nu_block << nu_shift)
            + ((key[2] + bias + (key[3] << width) + (key[4] << k_shift)) << tail_shift),
        )
        for key, c, g, mu_block, nu_block, _q in rows
    ]


def _packed_operands(a, b, cap, drop=0, half=False):
    """``(width, a-terms, partners)`` of one product kernel call.

    A term list holds ``(key, c, group, packed key)`` per stored term, in
    storage order; the a-terms carry the bias of m.  The mu and nu fields,
    the grade and the charge ``|mu| - |nu|`` of a key come from the interned
    table :func:`_index_table` of the call's ``(dim, width)``, looked up once
    per call.  ``partners[group]`` lists the b-terms that an a-term of that
    group meets, for a product that lowers the grade sum of a term pair by
    ``drop`` (2 for a bracket).  A kernel loops over these lists instead of
    testing every term pair: in the Lie series most pairs lie above the cap.

    The group of an a-term is its grade g, and its partners are the b-terms
    that fit under the cap with it, in storage order.  With ``half`` the
    group is ``(g, q)`` with q the a-term's charge, and its partners are the
    b-terms that fit and have charge ``<= -q``: a prefix of the fitting
    b-terms sorted by charge (a stable sort, so storage order within a
    charge).  Every product in the package adds the charges of a term pair,
    so a half call forms exactly the pairs whose output has charge ``<= 0``.

    Every product in the package keeps the total grade additive up to that
    drop, so an output field (mu_i, nu_i, j, k) never exceeds
    ``min(cap, ga + gb)``, with ``ga`` and ``gb`` the operands' largest
    grades, and an output ``|m|`` never exceeds the sum of their largest
    ``|m|``.  The field width in bits covers both, with one more bit for the
    sign of m, so no field can overflow, also under an infinite cap.  The
    floor :data:`_MIN_WIDTH` keeps one width, and so one index table per
    dim and one contraction table per exponent pair, for all ordinary
    grades; the rows are read again from a wider table only when the
    operands need more.
    """
    dim = a.dim
    width = _MIN_WIDTH
    blocks = _index_table(dim, width)[0]
    a_rows, b_rows = _operand_rows(a, blocks), _operand_rows(b, blocks)
    if a_rows and b_rows:
        bound = max(r[2] for r in a_rows) + max(r[2] for r in b_rows)
        if cap != INFINITE:
            bound = max(0, min(int(cap), bound))
        ms = max(abs(key[2]) for key in a._terms) + max(abs(key[2]) for key in b._terms)
        width = max(width, bound.bit_length(), ms.bit_length() + 1)
        if width > _MIN_WIDTH:
            blocks = _index_table(dim, width)[0]
            a_rows, b_rows = _operand_rows(a, blocks), _operand_rows(b, blocks)
    b_terms = _pack(b_rows, dim, width, 0)
    a_terms = _pack(a_rows, dim, width, 1 << (width - 1))
    if not half:
        partners = {
            g: [t for t in b_terms if t[2] <= cap + drop - g] for g in {r[2] for r in a_rows}
        }
        return width, a_terms, partners
    a_terms = [(key, c, (g, r[5]), p) for (key, c, g, p), r in zip(a_terms, a_rows)]
    by_charge = sorted(zip([r[5] for r in b_rows], b_terms), key=operator.itemgetter(0))
    charges_of = {}
    for r in a_rows:
        charges_of.setdefault(r[2], set()).add(r[5])
    partners = {}
    for g, charges in charges_of.items():
        fit = [(q, t) for q, t in by_charge if t[2] <= cap + drop - g]
        fit_charges = [q for q, _t in fit]
        fit_terms = [t for _q, t in fit]
        for q in charges:
            partners[g, q] = fit_terms[: bisect.bisect_right(fit_charges, -q)]
    return width, a_terms, partners


def _field_units(dim, width):
    """The packed units of the fields: (mu units, nu units, m, j, k)."""
    units = [1 << (f * width) for f in range(2 * dim + 3)]
    return units[:dim], units[dim : 2 * dim], units[2 * dim], units[2 * dim + 1], units[2 * dim + 2]


def _decoded(dim, width, packed):
    """The tuple-keyed dict of a packed-key dict, in its insertion order.

    Each key is split into its mu block, nu block and m, j, k fields (a sum
    with the bias of m counted once, see :func:`_pack`); mu and nu are read
    from the interned table :func:`_index_table` of ``(dim, width)``, so
    every decoded key shares its index tuples.
    """
    tuples = _index_table(dim, width)[1]
    mask = (1 << width) - 1
    bias = 1 << (width - 1)
    nu_shift = dim * width
    tail_shift = 2 * nu_shift
    block_mask = (1 << nu_shift) - 1
    k_shift = 2 * width
    terms = {}
    for p, c in packed.items():
        tail = p >> tail_shift
        terms[
            (
                tuples[p & block_mask],
                tuples[(p >> nu_shift) & block_mask],
                (tail & mask) - bias,
                (tail >> width) & mask,
                tail >> k_shift,
            )
        ] = c
    return terms


def _from_packed(cls, dim, out, width, cap):
    """The ``cls`` polynomial of a kernel's packed-key dict ``out``, kept packed.

    Exact zeros are deleted from ``out`` in place and the polynomial takes
    ``(width, out)`` as its storage; the tuple keys are built on the first
    read (:attr:`GradedPoly._terms`), in insertion order.
    """
    if 0 in out.values():
        for p in [p for p, c in out.items() if not c]:
            del out[p]
    return cls._wrap_packed(dim, width, out, cap)


def _merge(out, terms, sign):
    """Add (``sign`` 1) or subtract (``sign`` -1) ``terms`` into ``out`` in place.

    New keys go to the end in the order of ``terms``, and a key whose sum is
    an exact zero is deleted.  The keys may be tuples or packed ints.
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
def _contractions(nu1, mu2, width):
    """Contraction table of a^{nu1} against (a^+)^{mu2}, shared by both products.

    One entry ``(|l|, f_l, delta_l)`` per term of
    ``_contraction_terms(nu1, mu2)``, in its order, with the integer
    ``f_l = prod_i l_i! C(nu1_i, l_i) C(mu2_i, l_i)`` and the packed key offset
    ``delta_l`` (fields of ``width`` bits) that lowers every mu_i and nu_i by
    l_i and raises k by |l|.  The word product reads it for the pair
    (nu1, mu2) of its operands.  The Moyal sum reads it twice, for (nu1, mu2)
    and (mu1, nu2), because its transverse factor ``perm(n, x) perm(m, x) /
    x!`` equals ``x! C(n, x) C(m, x)``, and both of its contractions lower mu
    and nu alike.  Keyed on exponents and width only, which the grade cap
    bounds.
    """
    mu_units, nu_units, _m, _j, k_unit = _field_units(len(nu1), width)
    pair_units = list(map(operator.add, mu_units, nu_units))
    return tuple(
        (s, f_l, s * k_unit - sum(map(operator.mul, l, pair_units)))
        for l, s, f_l in _contraction_terms(nu1, mu2)
    )


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
    keys = a._terms.keys() | b._terms.keys()
    zeros = itertools.repeat(0)
    gaps = map(operator.sub, map(a._terms.get, keys, zeros), map(b._terms.get, keys, zeros))
    return max(map(abs, gaps), default=0.0)


class GradedPoly:
    """Immutable sparse graded polynomial: key (mu, nu, m, j, k) -> coefficient.

    Coefficients are Python complex (or real) numbers.  Exact zeros and
    keys above the cap are never stored.  A subclass names its grading
    (``_GRADING``), its symmetry and mirror (``_SYMMETRY``, ``_MIRROR``), exposes
    the cap as ``max_<grading>`` and supplies ``__mul__`` and ``mirror``,
    the antilinear involution that maps a key of charge ``|mu| - |nu|`` to
    keys of the opposite charge (the adjoint of a word, the conjugate of a
    symbol).  Polynomials of different subclasses never compare equal or
    combine.

    A kernel result is stored packed, as the kernel's ``(width, packed-key
    dict)`` (:func:`_from_packed`), until something reads its keys: the
    first read of :attr:`_terms` builds the tuple-keyed dict and drops the
    packed one, so a polynomial holds one form at a time.  ``len``,
    ``bool``, :meth:`max_abs_coeff` and unary ``-`` read either form, and
    ``+`` and ``-`` merge packed keys when both operands are packed at one
    width and cap.
    """

    __slots__ = ("dim", "_cap", "_store", "_packed")
    _GRADING = "grade"
    _SYMMETRY = "symmetric"

    def __init__(self, dim, terms=None, cap=INFINITE):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.dim = int(dim)
        self._cap = cap
        self._packed = None
        store = {}
        for key, c in (terms or {}).items():
            key = _validate_key(key, self.dim)
            if not c or key_grade(key) > cap:
                continue
            store[key] = store[key] + c if key in store else c
            if not store[key]:
                del store[key]
        self._store = store

    @classmethod
    def _trusted(cls, dim, terms, cap):
        """Build from canonical keys of grade <= ``cap`` (library use), dropping exact zeros.

        Keys are not re-validated and their grades not checked: the callers
        preserve grade.  For callers whose coefficients can come out as an
        exact zero: :meth:`scaled` (a zero scalar), :func:`solve_homological`
        (a quotient that underflows), the adjoint and the heat flows (sums
        that cancel).  Lie series stop on an empty term and term counts
        depend on it.  A caller that can raise a grade filters with
        :func:`_within` first; one that only keeps a subset of stored terms
        uses :meth:`_wrap`.
        """
        return cls._wrap(dim, {key: c for key, c in terms.items() if c}, cap)

    @classmethod
    def _wrap(cls, dim, store, cap):
        """Instance owning ``store`` as is: canonical keys of grade <= cap, no exact zeros."""
        self = object.__new__(cls)
        self.dim = dim
        self._cap = cap
        self._store = store
        self._packed = None
        return self

    @classmethod
    def _wrap_packed(cls, dim, width, packed, cap):
        """Instance owning the packed-key dict ``packed`` of fields of ``width`` bits.

        Its keys are those of a kernel result (m carries the bias, see
        :func:`_pack`), of grade <= cap, with no exact zeros.
        """
        self = cls._wrap(dim, None, cap)
        self._packed = (width, packed)
        return self

    @property
    def _terms(self):
        """The tuple-keyed dict of the terms; a packed result is decoded on the first read."""
        if self._packed is not None:
            width, packed = self._packed
            self._store = _decoded(self.dim, width, packed)
            self._packed = None
        return self._store

    def _values(self):
        """The coefficients in storage order, from whichever form is held."""
        return (self._store if self._packed is None else self._packed[1]).values()

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
        return len(self._values())

    def __bool__(self):
        return bool(self._values())

    def __eq__(self, other):
        return type(other) is type(self) and self.dim == other.dim and self._terms == other._terms

    def __repr__(self):
        return (
            f"{type(self).__name__}(dim={self.dim}, terms={len(self)}, "
            f"max_{self._GRADING}={self._cap})"
        )

    # -- linear structure ----------------------------------------------------

    def _merged(self, other, sign):
        """``self + sign * other`` in one merge loop (:func:`_merge`).

        The loop runs on packed keys when both operands are packed at the
        same width and cap, and on tuple keys otherwise, where terms above
        the smaller cap are left out.
        """
        if type(other) is not type(self):
            return NotImplemented
        _check_dims(self, other)
        a, b = self._packed, other._packed
        if a is not None and b is not None and a[0] == b[0] and self._cap == other._cap:
            return self._wrap_packed(self.dim, a[0], _merge(dict(a[1]), b[1], sign), self._cap)
        cap = min(self._cap, other._cap)
        out = dict(self._terms) if self._cap == cap else _within(self._terms, cap)
        terms = other._terms if other._cap == cap else _within(other._terms, cap)
        return self._wrap(self.dim, _merge(out, terms, sign), cap)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        if self._packed is not None:
            width, packed = self._packed
            return self._wrap_packed(self.dim, width, {p: -c for p, c in packed.items()}, self._cap)
        return self._wrap(self.dim, {key: -c for key, c in self._store.items()}, self._cap)

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
        kept = {key: c for key, c in self._terms.items() if pred(key)}
        return self._wrap(self.dim, kept, self._cap)

    def truncated(self, cap):
        return self._wrap(self.dim, _within(self._terms, cap), cap)

    def max_abs_coeff(self) -> float:
        return max(map(abs, self._values()), default=0.0)

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

    Exactly symmetric whenever the mirror is an exact involution in floating
    point: always for symbols, and for words without a ``D_t`` power next to
    a Fourier mode.  An ``a`` that equals its mirror exactly is returned as
    is.
    """
    mirror = a.mirror()
    if _check_symmetric(a, mirror, what) == 0.0:
        return a  # already exact: the average would repeat every coefficient
    return (a + mirror).scaled(0.5)


def _filled(half, scale):
    """``scale`` times the symmetric bracket whose charge ``<= 0`` part is ``half``.

    With X- the charge < 0 part of ``half`` and X0 its charge-0 slice, the
    bracket is ``X- + mirror(X-) + (X0 + mirror(X0)) / 2``, formed here as
    ``Y + mirror(Y)`` with ``Y = X- + X0 / 2`` (the halving is exact).
    """
    zero_scale = 0.5 * scale
    y = {
        key: c * (zero_scale if sum(key[0]) == sum(key[1]) else scale)
        for key, c in half._terms.items()
    }
    Y = half._wrap(half.dim, y, half._cap)
    return Y + Y.mirror()  # the sum drops any exact zero of Y


def lie_series(H, F, bracket, max_grade=None):
    """sum_k (1/k!) ad_F^k H with ad_F = bracket(F, ., cap), truncated at cap.

    ``cap`` is the finer of H's cap and ``max_grade``.  Requires the minimal
    grade of F to be >= 3: each bracket drops the grade sum by 2, so every
    application of ad_F gains at least one grade unit and the series ends
    exactly on the truncation.

    Symmetric by construction.  H and F must be symmetric (real, for
    symbols) to 1e-12 of their scale, or ValueError is raised; each is then
    replaced once by its average with its mirror (:func:`symmetrized`).
    Every term ``ad_F^k H / k!`` is then symmetric, and every bracket adds
    the charges ``|mu| - |nu|`` of a term pair, so the output keys of
    charge > 0 are the mirror of those of charge < 0.  Each bracket is
    therefore called as ``bracket(F, X, cap, half=True)``, which forms only
    the term pairs whose charges sum to ``<= 0``, and :func:`_filled`
    restores the rest from the mirror.
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
    F = symmetrized(F, "the generator")
    total = symmetrized(H.truncated(cap), "the conjugated operand")
    term = total
    k = 0
    while term:
        k += 1
        term = _filled(bracket(F, term, cap, half=True), 1.0 / k)
        total = total + term
    return total


def birkhoff_sweep(H, rot, order, work_grade, h0, solve, conjugate, to_normal_form):
    """The graded normal-form iteration of all three routes.

    For g = 3..order the non-resonant grade-g terms of the current
    Hamiltonian are removed by one solve ``solve(G) -> (F, G1)`` and one
    conjugation ``conjugate(cur, F, work) -> cur``, with the working cap
    ``work = max(order, work_grade)``.  Returns ``(nf, generators,
    remainder)``: ``to_normal_form`` of the resonant terms of grade <= order,
    the generators F in sweep order (each on one grade slice, so
    ``F.min_grade()`` is its grade g), and the conjugated Hamiltonian minus
    those resonant terms (grades > order plus sub-tolerance residue).

    H must be symmetric (a real symbol, for the series routes) to 1e-12 of
    its scale, or ValueError is raised; the sweep starts from its average
    with its mirror, so the remainder is exactly symmetric whenever the
    mirror is exact (see :func:`symmetrized`).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    work = max(order, work_grade if work_grade is not None else order)
    cur = symmetrized(H.truncated(work), "the Hamiltonian")
    check_quadratic_part(H, h0)
    rot.require_order(order)
    generators = []
    for g in range(3, order + 1):
        G = cur.filtered(lambda key: key_grade(key) == g and not is_resonant_key(key))
        if not G:
            continue
        F, _ = solve(G)
        cur = conjugate(cur, F, work)
        generators.append(F)
    resonant = cur.filtered(lambda key: is_resonant_key(key) and key_grade(key) <= order)
    return to_normal_form(resonant), generators, cur - resonant
