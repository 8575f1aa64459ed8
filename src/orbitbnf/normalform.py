"""Normal-form coefficient tables: real polynomials in (p, tau, hbar).

A :class:`NormalForm` stores the canonical output of every normal-form route
(classical, semiclassical, quantum): coefficients ``c[(r, s, k)]`` of

    sum c * p^r * tau^s * hbar^k

with ``r`` a multi-index over the transverse actions ``p_i``.  The
distinguished linear part is the energy ``E = c[(0,..,0), 0, 0]``, the
rotation angles ``theta_i = c[(e_i, 0, 0)]`` and the tau coefficient
``c[(0, 1, 0)] = 1``.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from fractions import Fraction

from .graded import _check_coeff, _read_index, _read_real, is_resonant_key
from .series import FTSeries


def _entry_key(r, s, k):
    """The entry ``(r, s, k)`` as plain ints; ValueError unless every exponent is an integer >= 0.

    Read with ``operator.index``, as term keys are (numpy ints too): ``int()``
    would read the exponent 1.5 as 1.
    """
    try:
        entry = (tuple(map(operator.index, r)), operator.index(s), operator.index(k))
    except TypeError:
        raise ValueError(f"exponents must be integers in entry ({r}, {s}, {k})") from None
    if min(entry[0] + entry[1:]) < 0:
        raise ValueError(f"negative exponent in entry {entry}")
    return entry


def entry_weight(entry) -> int:
    """Weight 2(|r| + s + k) of an entry in the joint grading."""
    r, s, k = entry
    return 2 * (sum(r) + s + k)


def _substituted(entries, table, hbar_order=math.inf) -> dict:
    """One substitution per mode on the entries ``((r, s, k), c)`` of a table.

    ``table(r_i)`` is the exact image of the power ``r_i`` of one mode, as
    terms ``((n, e), Fraction)``: hbar^e times the n-th basis element of
    the mode.  An entry adds ``c * float(f)`` at ``(n, s, k + sum e)`` for
    every product ``f`` of one term per mode, in entry order, mode 0
    outermost and each table in its own order; products past
    hbar^hbar_order are left out.  Each product is exact and rounds once,
    so the result does not depend on how the table was built.  A key whose
    contributions cancel holds 0.0, which the table constructors drop.
    """
    out = {}
    for (r, s, k), c in entries:
        parts = [((), 0, Fraction(1))]
        for ri in r:
            parts = [
                (n + (nn,), e + ee, f * ff)
                for n, e, f in parts
                for (nn, ee), ff in table(ri)
                if k + e + ee <= hbar_order
            ]
        for n, e, f in parts:
            key = (n, s, k + e)
            out[key] = out.get(key, 0.0) + c * float(f)
    return out


# Largest imaginary part, relative to max(1, |real part|), that a normal-form
# coefficient may carry: the routes' rounding, not a complex coefficient.
_IMAG_TOL = 1e-9


class NormalForm:
    """Real coefficient table c[(r, s, k)] of sum c p^r tau^s hbar^k.

    Parameters
    ----------
    dim : int
    coeffs : mapping (r, s, k) -> finite real (complex accepted if
        |imag| <= 1e-9 max(1, |real|), and stored as its real part)
    route : str or None
        Which construction produced it: "classical", "semiclassical",
        "quantum", or None for hand-built tables.
    """

    __slots__ = ("dim", "route", "_coeffs")

    def __init__(self, dim, coeffs=None, route=None):
        self.dim = _read_index(dim, "dim")
        self.route = route
        store = {}
        if coeffs:
            for (r, s, k), c in coeffs.items():
                entry = _entry_key(r, s, k)
                if len(entry[0]) != self.dim:
                    raise ValueError(f"entry {entry} has wrong dim (expected {self.dim})")
                _check_coeff(c, entry)
                c = complex(c)
                if abs(c.imag) > _IMAG_TOL * max(1.0, abs(c.real)):
                    raise ValueError(
                        f"normal-form coefficient at {entry} is not real: {c}"
                    )
                v = c.real
                if v:
                    store[entry] = store.get(entry, 0.0) + v
                    if not store[entry]:
                        del store[entry]
        self._coeffs = store

    # -- accessors -----------------------------------------------------------

    def items(self):
        return self._coeffs.items()

    def coeff(self, r, s, k) -> float:
        return self._coeffs.get(_entry_key(r, s, k), 0.0)

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"NormalForm(dim={self.dim}, entries={len(self._coeffs)}, route={self.route!r})"

    def energy(self) -> float:
        return self.coeff((0,) * self.dim, 0, 0)

    def theta(self) -> tuple:
        out = []
        for i in range(self.dim):
            e = tuple(1 if a == i else 0 for a in range(self.dim))
            out.append(self.coeff(e, 0, 0))
        return tuple(out)

    def tau_coefficient(self) -> float:
        return self.coeff((0,) * self.dim, 1, 0)

    def linear_entries(self):
        """The distinguished entries: constant, theta_i, tau."""
        zero = (0,) * self.dim
        keys = {(zero, 0, 0), (zero, 1, 0)}
        for i in range(self.dim):
            e = tuple(1 if a == i else 0 for a in range(self.dim))
            keys.add((e, 0, 0))
        return keys

    def nonlinear_items(self):
        """Entries beyond the linear part (the trace-relevant corrections)."""
        linear = self.linear_entries()
        return [(entry, c) for entry, c in self._coeffs.items() if entry not in linear]

    # -- algebra on tables -----------------------------------------------------

    def filtered(self, pred) -> "NormalForm":
        nf = NormalForm(self.dim, route=self.route)
        nf._coeffs.update({e: c for e, c in self._coeffs.items() if pred(e)})
        return nf

    def hbar_truncated(self, kmax) -> "NormalForm":
        """Drop entries with hbar-power k > kmax; ValueError unless kmax is an integer >= 0."""
        kmax = _read_index(kmax, "kmax")
        return self.filtered(lambda e: e[2] <= kmax)

    def difference(self, other) -> float:
        """max over entries of |self[e] - other[e]|."""
        worst = 0.0
        for e in set(self._coeffs) | set(other._coeffs):
            worst = max(worst, abs(self._coeffs.get(e, 0.0) - other._coeffs.get(e, 0.0)))
        return worst

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, p, tau=0.0, hbar=0.0) -> float:
        """Polynomial value at actions p (length dim), tau, hbar."""
        if len(p) != self.dim:
            raise ValueError("action vector has wrong length")
        total = 0.0
        for (r, s, k), c in self._coeffs.items():
            v = c
            for i in range(self.dim):
                if r[i]:
                    v *= p[i] ** r[i]
            if s:
                v *= tau**s
            if k:
                v *= hbar**k
            total += v
        return total

    # -- conversions -----------------------------------------------------------

    def as_series(self, max_weight=math.inf):
        """The same function as an FTSeries: p^r -> 2^{-|r|} z^r zbar^r."""
        terms = {}
        for (r, s, k), c in self._coeffs.items():
            terms[(r, r, 0, s, k)] = c * 2.0 ** (-sum(r))
        return FTSeries(self.dim, terms, max_weight)

    @staticmethod
    def from_resonant_series(series, route=None) -> "NormalForm":
        """Convert a resonant FTSeries (keys mu=nu, m=0) to a table.

        Inverse of :meth:`as_series`: z^mu zbar^mu = (2p)^mu, so the p^mu
        coefficient is 2^{|mu|} times the stored one.  Any non-resonant key
        raises ValueError, and anything but an FTSeries TypeError (a word's
        diagonal goes through :func:`~orbitbnf.words.diagonal_to_normal_form`).
        """
        if not isinstance(series, FTSeries):
            raise TypeError("expected FTSeries")
        coeffs = {}
        for key, c in series.items():
            if not is_resonant_key(key):
                raise ValueError(f"series is not resonant: key {key} has coefficient {c}")
            mu, _nu, _m, j, k = key
            coeffs[(mu, j, k)] = coeffs.get((mu, j, k), 0.0) + c * 2.0 ** sum(mu)
        return NormalForm(series.dim, coeffs, route=route)

    # -- serialization -----------------------------------------------------------

    def to_records(self):
        recs = []
        for entry in sorted(self._coeffs, key=lambda e: (entry_weight(e), e[2], e[1], e[0])):
            r, s, k = entry
            recs.append({"r": list(r), "s": s, "k": k, "c": self._coeffs[entry]})
        return recs

    @staticmethod
    def from_records(dim, records, route=None) -> "NormalForm":
        coeffs = {}
        for rec in records:
            entry = _entry_key(rec["r"], rec["s"], rec["k"])
            coeffs[entry] = coeffs.get(entry, 0.0) + _read_real(rec["c"], "coefficient 'c'")
        return NormalForm(dim, coeffs, route=route)

    def to_csv(self) -> str:
        """Table with columns route, r (space-separated), s, k, coeff."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["route", "r", "s", "k", "coeff"])
        for rec in self.to_records():
            writer.writerow(
                [self.route or "", " ".join(str(e) for e in rec["r"]), rec["s"], rec["k"], repr(rec["c"])]
            )
        return buf.getvalue()

    @staticmethod
    def from_csv(text) -> "NormalForm":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["route", "r", "s", "k", "coeff"]:
            raise ValueError("bad normal-form CSV header")
        coeffs = {}
        route = None
        dim = None
        for row in rows[1:]:
            if not row:
                continue
            route = row[0] or route
            r = tuple(int(e) for e in row[1].split()) if row[1].strip() else ()
            dim = len(r) if dim is None else dim
            entry = (r, int(row[2]), int(row[3]))
            coeffs[entry] = coeffs.get(entry, 0.0) + float(row[4])
        if dim is None:
            raise ValueError("empty normal-form CSV")
        return NormalForm(dim, coeffs, route=route)
