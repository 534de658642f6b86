"""Typed domain errors raised across the library.

Every error carries enough structure for a machine-readable report: the
CLI serializes the class name as the error kind, and `witness_json`, where
it is not None, as the error's witness.
"""

from __future__ import annotations

import sys


class NilmodError(Exception):
    """Base class for all domain errors."""

    witness_json = None


class NonCommuting(NilmodError):
    """A pair of action matrices fails to commute (1-based indices)."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        self.witness_json = [i, j]
        super().__init__(f"matrices {i} and {j} do not commute")


class NotNilpotent(NilmodError):
    """An operation requiring a nilpotent module got a non-nilpotent one."""


class SocleNotOneDimensional(NilmodError):
    """The module's socle is not a single line."""


class NoCommonEigenline(SocleNotOneDimensional):
    """No unique common eigenline exists for the action matrices.

    This is a special case of the socle failing to be one-dimensional
    under the general (possibly non-nilpotent) action.  When several
    joint eigenvalue tuples survive, they are the witness, each a list
    of "p/q" strings.
    """

    def __init__(self, message: str, tuples: list[list[str]] | None = None):
        self.tuples = self.witness_json = tuples
        super().__init__(message)


class NonRationalEigenvalue(NilmodError):
    """A required eigenvalue lies outside the rational field.

    The witness is the block (1-based) at which no joint eigenvalue
    tuple survives, and the characteristic polynomial of that integer
    block, D S_block over the module's denominator D: its coefficients
    c_0..c_d, ascending, as decimal strings.
    """

    def __init__(self, message: str, block: int, char_poly: list[str]):
        self.block, self.char_poly = block, char_poly
        self.witness_json = {"block": block, "char_poly": char_poly}
        super().__init__(message)


class Incompatible(NilmodError):
    """Prescribed partial derivatives have asymmetric mixed partials."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        self.witness_json = [i, j]
        super().__init__(f"incompatible pair ({i}, {j}): mixed partials differ")


class TruncationTooLow(NilmodError):
    """A series' truncation is below its operand's degree; both are the witness."""

    def __init__(self, message: str, truncation: int, degree: int):
        self.truncation, self.degree = truncation, degree
        self.witness_json = {"truncation": truncation, "degree": degree}
        super().__init__(message)


class NotAnEndomorphism(NilmodError):
    """A monomial-image table does not commute with the partial derivatives."""

    def __init__(self, i: int, witness: tuple[int, ...]):
        self.i = i
        self.witness = witness
        self.witness_json = {"derivative": i, "monomial": list(witness)}
        super().__init__(
            f"map does not commute with derivative {i} at monomial {witness}"
        )


class WrongConstantTerm(NilmodError):
    """Series exp/log called with a constant term outside its domain."""


class DimensionTooLarge(NilmodError):
    """Input or output past a documented size bound: the brute-force
    oracle's `max_dim`, the random generator's GEN_LIMIT, or Python's
    limit on the digits of an integer read or printed as a string."""

    @classmethod
    def past_digit_limit(cls, reading: bool) -> "DimensionTooLarge":
        """A number read (or printed) past Python's limit on int-str
        conversion, which stays in place against CVE-2020-10735."""
        side, verb = ("input", "read") if reading else ("output", "print")
        return cls(f"an {side} number has more than {sys.get_int_max_str_digits()} digits, Python's {verb} limit")


class NothingToExtend(NilmodError):
    """No monomial is available to adjoin during an extension step."""


class IncompatibleMap(NilmodError):
    """A supplied map is not an intertwining bijection between its modules."""
