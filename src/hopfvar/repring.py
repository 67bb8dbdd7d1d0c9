"""Arithmetic in the representation rings of the symmetric groups S2 and S3.

A finite group acting on a variety refines its E-polynomial to an element of
the group's representation ring with polynomial coefficients.  For S2 the
basis is {T, N} (trivial, sign); for S3 it is {T, S, D} (trivial, sign,
standard).  The T-coefficient is the E-polynomial of the quotient (under S3,
t + d is that of the quotient by a transposition), and the dimension map
T,N,S -> 1, D -> 2 recovers the plain E-polynomial.  Every irreducible of S2
and S3 is self-dual, so T occurs once in the product of an irreducible with
itself and never in a product of two distinct ones: the T-coefficient of
x * y is the sum of the products of matching coefficients.

Negative coefficients are legal (virtual representations occur naturally,
e.g. (q-2)*T - N).  Only S2 and S3 are provided; nothing here generalizes to
other groups.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import ClassVar

from .poly import IntoPoly, Poly


def _poly(x: IntoPoly) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly([x])
    raise TypeError(f"coefficients must be Poly or int, got {type(x).__name__}")


class _RepElem:
    """Body shared by S2Elem and S3Elem.  A subclass is a frozen dataclass
    (equality and hashing) with one Poly field per irreducible, in basis
    order and named after it, the trivial representation t first and every
    other field defaulting to 0; __post_init__ turns int fields into Poly.
    A subclass brings its own __mul__ (its multiplication table), which, as
    __add__ does, returns NotImplemented for an operand of another type."""

    #: dimension of each irreducible, in field order
    DIMS: ClassVar[tuple[int, ...]]

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _poly(getattr(self, f.name)))

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The coefficients, one per irreducible, in basis order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*map(operator.add, self.coeffs, other.coeffs))

    def dim(self) -> Poly:
        """Plain E-polynomial of the underlying space: the coefficients
        weighted by the dimensions of their irreducibles."""
        return Poly.combine(zip(self.DIMS, self.coeffs))

    def __bool__(self) -> bool:
        """False for the zero element, as for Poly: the one zero test."""
        return any(self.coeffs)

    def to_ascii(self) -> str:
        # e.g. '(q^2 + 1)*T - 2*q*N'; a coefficient of several terms is bracketed
        out = ""
        for f in fields(self):
            coeff, name = getattr(self, f.name), f.name.upper()
            if not coeff:
                continue
            text = coeff.to_ascii()
            if " " in text:
                sign, body = "+", f"({text})*{name}"
            else:
                sign, mag = ("-", text[1:]) if text.startswith("-") else ("+", text)
                body = name if mag == "1" else f"{mag}*{name}"
            out += f" {sign} {body}" if out else ("-" if sign == "-" else "") + body
        return out or "0"

    __str__ = to_ascii

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self.to_ascii()}')"


@dataclass(frozen=True, repr=False)
class S2Elem(_RepElem):
    """Element a*T + b*N of the S2 representation ring over Poly."""

    DIMS = (1, 1)
    t: Poly
    n: Poly = 0

    def __mul__(self, other: S2Elem) -> S2Elem:
        if type(other) is not S2Elem:
            return NotImplemented
        # (aT + bN)(a'T + b'N) = (aa' + bb')T + (ab' + ba')N
        a, b = self.t, self.n
        c, d = other.t, other.n
        return S2Elem(a * c + b * d, a * d + b * c)


@dataclass(frozen=True, repr=False)
class S3Elem(_RepElem):
    """Element a*T + b*S + c*D of the S3 representation ring over Poly.

    The product is the bilinear extension of the tensor table
    S*S = T, S*D = D, D*D = T + S + D (T is the unit).
    """

    DIMS = (1, 1, 2)
    t: Poly
    s: Poly = 0
    d: Poly = 0

    def __mul__(self, other: S3Elem) -> S3Elem:
        if type(other) is not S3Elem:
            return NotImplemented
        a, b, c = self.t, self.s, self.d
        x, y, z = other.t, other.s, other.d
        return S3Elem(
            a * x + b * y + c * z,
            a * y + b * x + c * z,
            a * z + c * x + b * z + c * y + c * z,
        )
