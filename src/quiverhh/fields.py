"""Exact coefficient fields: the rationals and prime fields.

Scalars are plain values (``int`` or ``Fraction`` for the rationals,
``int`` in ``[0, p)`` for a prime field); a :class:`FieldSpec` bundles the
operations so linear algebra can be written once for both.

A rational is a plain ``int`` while it is integral, and a ``Fraction``
only once the inverse of a non-unit makes it fractional: ``zero`` and
``one`` are ints, ``inv`` returns -1 and 1 as themselves, and an
inverse that comes out integral is turned back into an ``int``.  No
operation divides an ``int`` by an ``int`` with ``/``, so no scalar is ever
a float.  The two kinds mix freely and cannot change any output, because
``Fraction(n) == n``, ``hash(Fraction(n)) == hash(n)`` and
``str(Fraction(n)) == str(n)``: canonical echelon rows compare and hash the
same whichever kind holds an integral entry, and every scalar prints the
same.  (Only the ``repr`` differs, so scalars are printed one at a time
with ``str``, never as a container.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin with the first twelve primes as bases is exact below 3.18e23
# (Sorenson and Webster, Math. Comp. 2017), which covers every p < 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``char == 0``) or the prime field of ``char`` elements."""

    char: int = 0

    def __post_init__(self):
        if self.char >= 2**64:
            raise ValueError(f"field characteristic must be below 2^64, got {self.char}")
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"field characteristic must be 0 or prime, got {self.char}")
        # scalars are immutable, so every caller can share one zero and one one
        object.__setattr__(self, "zero", 0)
        object.__setattr__(self, "one", 1)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, self.char - 2, self.char)
        if type(a) is int:
            # never ``1 / a`` on an int: that would be a float
            return a if a in (1, -1) else Fraction(1, a)
        s = 1 / a
        return s.numerator if s.denominator == 1 else s

    def is_zero(self, a) -> bool:
        return a == 0

    # ``char | n`` test used by the loop-power characteristic condition.
    def divides_char(self, n: int) -> bool:
        return self.char != 0 and n % self.char == 0

    def __str__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    """The prime field of ``p`` elements; unlike ``FieldSpec``, p = 0 is rejected."""
    if p < 2:
        raise ValueError(f"field characteristic must be prime, got {p}")
    return FieldSpec(p)
