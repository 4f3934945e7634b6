"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples of fixed length ``nvars``.  All operations
are exact; the zero polynomial is the unique one with an empty term dict.

Every exact scalar mclab stores or returns, a coefficient here included,
follows one rule, kept by :func:`exact`: an ``int`` when the value is
integral, a ``fractions.Fraction`` with denominator > 1 otherwise, never
an approximate number.  Division goes through ``Fraction``.
Integral values stay Python ints, whose arithmetic is native code; the
rationals, and so every printed value, are those of an all-``Fraction``
computation, since ``str``, ``==`` and ``hash`` agree on 3 and
``Fraction(3)``.
"""

from __future__ import annotations

from fractions import Fraction as Q
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Q]


def exact(c) -> Scalar:
    """The canonical exact scalar equal to c: an int when c is integral,
    else a Fraction.  Anything ``Fraction`` accepts but a float is
    converted first; a float raises ``TypeError``, since its binary
    expansion is not the number it was written as."""
    if type(c) is int:
        return c
    if type(c) is not Q:
        if isinstance(c, float):
            raise TypeError(f"{c!r} is a float, not an exact scalar")
        c = Q(c)
    return c.numerator if c.denominator == 1 else c


def _exact_terms(terms: dict) -> dict:
    """``terms`` with each Fraction coefficient made canonical, in place;
    the keys and their order are kept."""
    for m, c in terms.items():
        if type(c) is Q:
            terms[m] = exact(c)
    return terms


def mul_acc(acc: dict, p: Mapping[tuple, Scalar], q: Mapping[tuple, Scalar],
            scale: Scalar = 1) -> dict:
    """Add scale * p * q into the term dict ``acc``, in place, and return
    it; p and q are term dicts with nonzero coefficients and scale is a
    nonzero exact scalar.

    This is the one polynomial multiply loop.  A sum that cancels is
    deleted at once, so ``acc`` never holds a zero and a cancelled
    monomial that comes back is appended last.  Coefficients are partial
    sums: a Fraction with denominator 1 may stay until :func:`finish`
    makes the dict a ``Poly``.  So a product, or a field's component, can
    take any number of accumulations and is made canonical once.
    """
    if scale != 1:
        p = {m: c * scale for m, c in p.items()}
    get = acc.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            s = get(m)
            if s is None:       # both factors are nonzero
                acc[m] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    acc[m] = s
                else:
                    del acc[m]
    return acc


def diff_terms(p: Mapping[tuple, Scalar], v: int) -> dict:
    """Term dict of dp/dx_v: only the terms with a positive exponent in
    x_v contribute.  Coefficients follow :func:`mul_acc`'s partial-sum
    convention (a Fraction times an exponent may be integral)."""
    out = {}
    for m, c in p.items():
        e = m[v]
        if e:
            out[m[:v] + (e - 1,) + m[v + 1:]] = c * e
    return out


def finish(nvars: int, acc: dict) -> "Poly":
    """The ``Poly`` that takes over a partial-sum term dict, its
    coefficients made canonical by :func:`exact` in place."""
    return Poly._of(nvars, _exact_terms(acc))


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] | None = None):
        self.nvars = nvars
        clean: dict[tuple, Scalar] = {}
        if terms:
            for mono, c in terms.items():
                c = exact(c)
                if c != 0:
                    if len(mono) != nvars:
                        raise ValueError("monomial length mismatch")
                    clean[tuple(mono)] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------
    @staticmethod
    def _of(nvars: int, terms: dict) -> "Poly":
        """The Poly that owns ``terms`` as given, without validation: the
        caller guarantees nonzero canonical coefficients and monomials of
        length ``nvars``."""
        out = object.__new__(Poly)
        out.nvars = nvars
        out.terms = terms
        return out

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._of(nvars, {})

    @staticmethod
    def const(nvars: int, c: Scalar) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int, c: Scalar = 1) -> "Poly":
        mono = [0] * nvars
        mono[i] = 1
        return Poly(nvars, {tuple(mono): c})

    # ---- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, 0)

    # ---- ring operations -------------------------------------------------
    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable sets")

    def __add__(self, other):
        if type(other) is not Poly:
            other = Poly.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s += c
                if s:
                    terms[m] = s if type(s) is int else exact(s)
                else:
                    del terms[m]
        return Poly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Poly:
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            c = exact(other)
            return Poly._of(self.nvars, _exact_terms(
                {m: cc * c for m, cc in self.terms.items()}) if c else {})
        self._check(other)
        return finish(self.nvars, mul_acc({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar):
        return self * (Q(1) / c)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, int) and type(other) is not Q:
                return NotImplemented
            other = Poly.const(self.nvars, other)
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- calculus ------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        return finish(self.nvars, diff_terms(self.terms, i))

    def subs(self, values: Mapping[int, "Poly | Scalar"]) -> "Poly":
        """Substitute polynomials (or scalars) for the given variable indices."""
        vals = {}
        for i, v in values.items():
            vals[i] = v if type(v) is Poly else Poly.const(self.nvars, v)
        out = Poly.zero(self.nvars)
        for m, c in self.terms.items():
            term = Poly.const(self.nvars, c)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                if i in vals:
                    term = term * vals[i] ** e
                else:
                    term = term * Poly.var(self.nvars, i) ** e
            out = out + term
        return out

    def at_zero(self, variables: Sequence[int]) -> "Poly":
        """The polynomial with the variables at the given indices set to
        zero: the terms free of them."""
        return Poly._of(self.nvars, {
            m: c for m, c in self.terms.items()
            if not any(m[v] for v in variables)})

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        total = 0
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= exact(point[i]) ** e
            total += v
        return exact(total)

    # ---- grading ---------------------------------------------------------
    def weighted_parts(self, weights: Sequence[int]) -> dict[int, "Poly"]:
        parts: dict[int, dict] = {}
        for m, c in self.terms.items():
            d = sum(w * e for w, e in zip(weights, m))
            parts.setdefault(d, {})[m] = c
        return {d: Poly._of(self.nvars, t) for d, t in parts.items()}

    # ---- structure access ----------------------------------------------
    def coeff(self, mono: tuple) -> Scalar:
        return self.terms.get(tuple(mono), 0)

    def monomials(self) -> Iterable[tuple]:
        return self.terms.keys()

    def lift(self, nvars: int, mapping: Sequence[int] | None = None) -> "Poly":
        """Re-embed into a ring with ``nvars`` variables.

        ``mapping[i]`` is the index of old variable i in the new ring;
        identity embedding when omitted.
        """
        if mapping is None:
            mapping = list(range(self.nvars))
        acc: dict[tuple, Scalar] = {}
        for m, c in self.terms.items():
            mm = [0] * nvars
            for i, e in enumerate(m):
                mm[mapping[i]] += e
            mm = tuple(mm)
            s = acc.get(mm)
            acc[mm] = c if s is None else s + c
        return finish(nvars, {m: c for m, c in acc.items() if c})

    # ---- rendering -------------------------------------------------------
    def render(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda mm: (sum(mm), mm), reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            if not body:
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        s = " + ".join(bits).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"Poly({self.render([f'x{i}' for i in range(self.nvars)])})"


def monomials_of_weighted_degree(weights: Sequence[int], degree: int) -> list[tuple]:
    """All exponent tuples with the given exact weighted degree.

    Weights must be positive.  Deterministic (lexicographic) order.
    """
    n = len(weights)
    out: list[tuple] = []

    def rec(i: int, remaining: int, acc: list[int]) -> None:
        if i == n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            acc.append(e)
            rec(i + 1, remaining - e * w, acc)
            acc.pop()

    rec(0, degree, [])
    return out
