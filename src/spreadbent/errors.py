"""The library's two exception types, one per CLI exit code.

SpreadbentError marks input outside what the library defines or supports,
and the CLI exits 2 on it. ConstructionRejected marks a family that does
not give a checked partial-spread bent function, most often because two of
its polynomials are not coprime, and the CLI exits 3 on it. Both are
ValueErrors, so callers that do not care which can catch broadly; the
message says what failed. check_int is the one test of an int argument
(a degree, a window size, an arity, a count) against its range.
"""


class SpreadbentError(ValueError):
    """Input outside what the library defines or supports (CLI exit 2)."""


class ConstructionRejected(SpreadbentError):
    """A family that gives no checked partial-spread bent function (CLI exit 3)."""


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise SpreadbentError unless value is an int in [low, high], or at
    least low when high is None. A bool or a float is refused even where it
    equals an int: the memos key on these values, where True == 1 and
    2.0 == 2, so each caller checks before its memo is read."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise SpreadbentError(f"{name} must be an int {bound}, got {value!r}")
