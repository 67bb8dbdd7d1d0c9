"""Exact univariate integer polynomials in the Hodge variable q.

Every quantity in this package (E-polynomials of varieties, their equivariant
refinements, point-count predictions) is ultimately a polynomial in a single
variable q with integer coefficients.  This module provides that common
currency: a dense, immutable, arbitrary-precision polynomial type with ring
arithmetic, exact evaluation, and the symmetric-product series expansion.

Coefficients are stored ascending (index i holds the coefficient of q^i) with
trailing zeros stripped, so equal polynomials compare equal structurally.
The public constructor ``Poly(coeffs)`` validates its input: every coefficient
must be an int.  Arithmetic (``+``, ``-``, ``*``, ``**``) takes Poly and int
operands only, so its coefficients are ints by construction, and builds its
results through the trusted constructor ``Poly._make``, which only strips
trailing zeros.  It has two kernels: ``Poly.combine``, the one linear kernel,
forms sum s*p over (int, Poly) terms in one pass over the coefficients, and
``+``, ``-``, unary ``-`` and int multiples are each one call of it; the
product of two Polys is a convolution, and ``**`` repeats it.
Degrees in this package stay small (<= 16), which makes the dense
representation and schoolbook convolution the right tool.

>>> (Q - 1) * (Q + 1)
Poly('q^2 - 1')
>>> Poly([0, -1, 0, 1]).evaluate(7)
336
"""

from __future__ import annotations

from typing import Iterable, Union

IntoPoly = Union["Poly", int]


class Poly:
    """Integer polynomial in q, canonical form (no stored trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        _set_coeffs(self, tuple(cs))

    @staticmethod
    def _make(cs: list[int]) -> Poly:
        """Trusted constructor for results of arithmetic on Poly and int
        operands: strips the trailing zeros of cs (in place) and skips the
        coefficient type check.  Takes ownership of cs."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = _new(Poly)
        _set_coeffs(p, tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    # -- ring arithmetic -----------------------------------------------------
    #
    # A Poly operand is used as it is and an int c enters combine as the term
    # (c, ONE); any other operand gives NotImplemented, hence a TypeError.

    def _plus(self, s: int, other: IntoPoly, t: int) -> Poly:
        """s*self + t*other through combine."""
        if isinstance(other, Poly):
            return Poly.combine(((s, self), (t, other)))
        if isinstance(other, int):
            return Poly.combine(((s, self), (t * other, ONE)))
        return NotImplemented

    def __add__(self, other: IntoPoly) -> Poly:
        return self._plus(1, other, 1)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly.combine(((-1, self),))

    def __sub__(self, other: IntoPoly) -> Poly:
        return self._plus(1, other, -1)

    def __rsub__(self, other: IntoPoly) -> Poly:
        return self._plus(-1, other, 1)

    def __mul__(self, other: IntoPoly) -> Poly:
        if isinstance(other, int):
            return Poly.combine(((other, self),))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # an empty operand leaves out all zeros (or empty), hence ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly._make(out)

    __rmul__ = __mul__

    @staticmethod
    def combine(terms: Iterable[tuple[int, Poly]]) -> Poly:
        """sum s*p over the (int s, Poly p) pairs of terms, in one pass over
        their coefficients; zero scalars are skipped and no terms give ZERO."""
        out: list[int] = []
        for s, p in terms:
            if not isinstance(s, int) or not isinstance(p, Poly):
                raise TypeError(f"combine takes (int, Poly) pairs, not {s!r:.20}, {p!r:.20}")
            if not s:
                continue
            cs = p.coeffs
            if not out:
                # the first term is copied, not added into zeros
                out = list(cs) if s == 1 else [s * c for c in cs]
                continue
            if len(cs) > len(out):
                out.extend([0] * (len(cs) - len(out)))
            for i, c in enumerate(cs):
                out[i] += s * c
        return Poly._make(out)

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- rendering ------------------------------------------------------------

    def _render(self, times: str, power: str, pad: str) -> str:
        """Descending-degree rendering, zero coefficients skipped.  times
        joins a coefficient to its power of q, power formats q^deg (a
        str.format pattern) and pad surrounds the sign between terms."""
        out = ""
        for deg in range(self.degree, -1, -1):
            c = self.coeffs[deg]
            if c == 0:
                continue
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            else:
                var = "q" if deg == 1 else power.format(deg)
                body = var if mag == 1 else f"{mag}{times}{var}"
            if out:
                out += pad + ("+" if c > 0 else "-") + pad + body
            else:
                out = body if c > 0 else "-" + body
        return out or "0"

    def to_ascii(self) -> str:
        """Plain-text rendering, descending degree, e.g. 'q^3 - q'."""
        return self._render("*", "q^{}", " ")

    def to_latex(self) -> str:
        """LaTeX rendering, descending degree, e.g. 'q^{3}-q'."""
        return self._render("", "q^{{{}}}", "")

    def __str__(self) -> str:
        return self.to_ascii()

    def __repr__(self) -> str:
        return f"Poly('{self.to_ascii()}')"


#: Bound once for the constructors of Poly: the slot setter bypasses its
#: __setattr__, which refuses, and beats object.__setattr__.
_new = object.__new__
_set_coeffs = Poly.__dict__["coeffs"].__set__

#: The variable q itself.
Q = Poly([0, 1])

ZERO = Poly()
ONE = Poly([1])


def sym_projective_epoly(m: int, r: int) -> Poly:
    """E-polynomial of the r-th symmetric product of projective m-space.

    Expands the generating series prod_{i=0..m} 1/(1 - q^i t) to order r in t
    and returns the t^r coefficient.  For r = 1 this is 1 + q + ... + q^m.

    >>> sym_projective_epoly(2, 2)
    Poly('q^4 + q^3 + 2*q^2 + q + 1')
    """
    if m < 0 or r < 0:
        raise ValueError("m and r must be >= 0")
    # series[k] = t^k coefficient; multiplying by 1/(1 - q^i t) is the
    # cumulative recurrence new[k] = old[k] + q^i * new[k-1].
    series: list[Poly] = [ONE] + [ZERO] * r
    for i in range(m + 1):
        qi = Q ** i
        for k in range(1, r + 1):
            series[k] = series[k] + qi * series[k - 1]
    return series[r]


def special_linear_epoly(r: int) -> Poly:
    """E-polynomial of SL_r over the complex numbers.

    (q^r - 1)(q^r - q) ... (q^r - q^{r-2}) * q^{r-1}; equals the order of
    SL_r over a field with q elements when evaluated at a prime power.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    out = Q ** (r - 1)
    qr = Q ** r
    for i in range(r - 1):
        out = out * (qr - Q ** i)
    return out


def general_linear_epoly(r: int) -> Poly:
    """E-polynomial of GL_r: (q^r - 1)(q^r - q) ... (q^r - q^{r-1}), which is
    (q - 1) times that of SL_r."""
    return (Q - 1) * special_linear_epoly(r)

