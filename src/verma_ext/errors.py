"""Exception hierarchy shared by all modules.

Every error raised on a documented failure path derives from VermaExtError,
so callers (and the command line driver) can map errors to exit codes
without matching on message strings.
"""

from __future__ import annotations


class VermaExtError(Exception):
    """Base class for all package errors."""


class InvalidType(VermaExtError):
    """Malformed or unsupported type descriptor (bad family letter, rank out of range)."""


class RankOverflow(VermaExtError):
    """Requested group exceeds the configured order budget."""


class IndexOutOfRange(VermaExtError):
    """Simple reflection index outside 0..rank-1."""


class NotComparable(VermaExtError):
    """Pair (x, y) violates the y <= x precondition in Bruhat order."""


class ParseError(VermaExtError):
    """Malformed word string, cache row, or serialized object."""


class RankMismatch(VermaExtError):
    """Vectors or subspaces from incompatible ambient dimensions were mixed."""


class LiftingViolation(VermaExtError):
    """A recursion step produced a pair outside its certified domain.

    The descent recursions assume the Bruhat lifting property carries
    comparability down each branch; this firing means an internal
    invariant is broken, not that the caller passed bad input.
    """


class IoError(VermaExtError):
    """Filesystem failure while reading or writing caches and reports."""


class InvariantViolation(VermaExtError):
    """A computed quantity contradicts a guarantee the recursions are built on (for example a
    negative first-order coefficient)."""


# The command line driver exits 2 for these, 3 for LiftingViolation and
# InvariantViolation, and 1 for every other VermaExtError.
DOMAIN_ERRORS = (NotComparable, ParseError)
