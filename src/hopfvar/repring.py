"""Arithmetic in the representation rings of the symmetric groups S2 and S3.

A finite group acting on a variety refines its E-polynomial to an element of
the group's representation ring with polynomial coefficients.  For S2 the
basis is {T, N} (trivial, sign); for S3 it is {T, S, D} (trivial, sign,
standard).  The T-coefficient is the E-polynomial of the quotient, and the
dimension map T,N,S -> 1, D -> 2 recovers the plain E-polynomial.

Negative coefficients are legal (virtual representations occur naturally,
e.g. (q-2)*T - N).  Only S2 and S3 are provided; nothing here generalizes to
other groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .poly import ONE, ZERO, Poly

IntoPoly = Union[Poly, int]


def _poly(x: IntoPoly) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly([x])
    raise TypeError(f"coefficients must be Poly or int, got {type(x).__name__}")


def _render(parts: list[tuple[Poly, str]]) -> str:
    # e.g. '(q^2 + 1)*T - 2*q*N'; a coefficient of several terms is bracketed
    out = ""
    for coeff, name in parts:
        if coeff.is_zero():
            continue
        text = coeff.to_ascii()
        if " " in text:
            sign, body = "+", f"({text})*{name}"
        else:
            sign, mag = ("-", text[1:]) if text.startswith("-") else ("+", text)
            body = name if mag == "1" else f"{mag}*{name}"
        out += f" {sign} {body}" if out else ("-" if sign == "-" else "") + body
    return out or "0"


@dataclass(frozen=True)
class S2Elem:
    """Element a*T + b*N of the S2 representation ring over Poly."""

    t: Poly
    n: Poly

    def __init__(self, t: IntoPoly, n: IntoPoly = 0):
        object.__setattr__(self, "t", _poly(t))
        object.__setattr__(self, "n", _poly(n))

    @staticmethod
    def trivial(e: IntoPoly) -> S2Elem:
        """Equivariant class of a connected group acted on by inner
        automorphisms: the action on cohomology is trivial, so e_F = e * T."""
        return S2Elem(_poly(e), ZERO)

    @staticmethod
    def from_quotients(e_x: IntoPoly, e_x_mod_s2: IntoPoly) -> S2Elem:
        """Reconstruct a*T + b*N from e(X) and e(X/S2): a is the quotient
        E-polynomial and b the difference."""
        e_x, a = _poly(e_x), _poly(e_x_mod_s2)
        return S2Elem(a, e_x - a)

    def __add__(self, other: S2Elem) -> S2Elem:
        return S2Elem(self.t + other.t, self.n + other.n)

    def __mul__(self, other: S2Elem) -> S2Elem:
        # (aT + bN)(a'T + b'N) = (aa' + bb')T + (ab' + ba')N
        a, b = self.t, self.n
        c, d = other.t, other.n
        return S2Elem(a * c + b * d, a * d + b * c)

    def t_component(self) -> Poly:
        """E-polynomial of the quotient by the action."""
        return self.t

    def dim(self) -> Poly:
        """Plain E-polynomial of the underlying space: t + n."""
        return self.t + self.n

    def is_zero(self) -> bool:
        return self.t.is_zero() and self.n.is_zero()

    def to_ascii(self) -> str:
        return _render([(self.t, "T"), (self.n, "N")])

    def __str__(self) -> str:
        return self.to_ascii()

    def __repr__(self) -> str:
        return f"S2Elem('{self.to_ascii()}')"


S2_ONE = S2Elem(ONE, ZERO)


@dataclass(frozen=True)
class S3Elem:
    """Element a*T + b*S + c*D of the S3 representation ring over Poly.

    The product is the bilinear extension of the tensor table
    S*S = T, S*D = D, D*D = T + S + D (T is the unit).
    """

    t: Poly
    s: Poly
    d: Poly

    def __init__(self, t: IntoPoly, s: IntoPoly = 0, d: IntoPoly = 0):
        object.__setattr__(self, "t", _poly(t))
        object.__setattr__(self, "s", _poly(s))
        object.__setattr__(self, "d", _poly(d))

    @staticmethod
    def trivial(e: IntoPoly) -> S3Elem:
        """Trivial-action class e * T (connected group, inner automorphisms)."""
        return S3Elem(_poly(e), ZERO, ZERO)

    @staticmethod
    def from_quotients(e_x: IntoPoly, e_x_mod_tau: IntoPoly,
                       e_x_mod_s3: IntoPoly) -> S3Elem:
        """Reconstruct a*T + b*S + c*D from the E-polynomials of the space,
        its quotient by a transposition, and its full S3 quotient:
        a = e(X/S3), b = e(X) - 2e(X/tau) + e(X/S3), c = e(X/tau) - e(X/S3).
        """
        e_x = _poly(e_x)
        e_tau = _poly(e_x_mod_tau)
        a = _poly(e_x_mod_s3)
        return S3Elem(a, e_x - 2 * e_tau + a, e_tau - a)

    def __add__(self, other: S3Elem) -> S3Elem:
        return S3Elem(self.t + other.t, self.s + other.s, self.d + other.d)

    def __mul__(self, other: S3Elem) -> S3Elem:
        a, b, c = self.t, self.s, self.d
        x, y, z = other.t, other.s, other.d
        return S3Elem(
            a * x + b * y + c * z,
            a * y + b * x + c * z,
            a * z + c * x + b * z + c * y + c * z,
        )

    def t_component(self) -> Poly:
        """E-polynomial of the quotient by the full S3 action."""
        return self.t

    def tau_quotient(self) -> Poly:
        """E-polynomial of the quotient by a transposition: t + d."""
        return self.t + self.d

    def dim(self) -> Poly:
        """Plain E-polynomial of the underlying space: t + s + 2d."""
        return self.t + self.s + 2 * self.d

    def is_zero(self) -> bool:
        return self.t.is_zero() and self.s.is_zero() and self.d.is_zero()

    def to_ascii(self) -> str:
        return _render([(self.t, "T"), (self.s, "S"), (self.d, "D")])

    def __str__(self) -> str:
        return self.to_ascii()

    def __repr__(self) -> str:
        return f"S3Elem('{self.to_ascii()}')"


S3_ONE = S3Elem(ONE, ZERO, ZERO)
