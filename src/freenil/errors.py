"""Error types shared across the package.

InvariantError marks states the underlying mathematics proves impossible;
reaching one means a transcription bug, never bad user input.  LimitExceeded
marks a voluntary resource ceiling (step counts, arity caps) so callers can
distinguish "gave up" from "failed".  UnsupportedOperation marks requests
that are well posed but outside what the oracles can decide, such as double
cosets of an infinite group.
"""


class InvariantError(RuntimeError):
    """A mathematically impossible state was reached; the code is wrong."""


class LimitExceeded(RuntimeError):
    """A configured resource ceiling was hit before the computation finished."""


def ensure_within(value: int, ceiling: int, what: str,
                  hint: str = "set FREENIL_LIMITS to go higher") -> None:
    if value > ceiling:
        raise LimitExceeded(f"{what} {value} exceeds the configured ceiling {ceiling}; {hint}")


class UnsupportedOperation(RuntimeError):
    """The request needs more than the supplied oracle can decide."""
