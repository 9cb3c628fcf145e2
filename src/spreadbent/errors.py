"""The library's two exception types, one per CLI exit code.

SpreadbentError marks input outside what the library defines or supports,
and the CLI exits 2 on it. ConstructionRejected marks a family that does
not give a checked partial-spread bent function, most often because two of
its polynomials are not coprime, and the CLI exits 3 on it. Both are
ValueErrors, so callers that do not care which can catch broadly; the
message says what failed.
"""


class SpreadbentError(ValueError):
    """Input outside what the library defines or supports (CLI exit 2)."""


class ConstructionRejected(SpreadbentError):
    """A family that gives no checked partial-spread bent function (CLI exit 3)."""
