"""Exception types shared across the package.

Two kinds of failure are kept apart because the command line maps them to
different exit codes: malformed input text (ParseError) versus well-formed
input that violates a mathematical precondition (DomainError).
"""


class ParseError(ValueError):
    """Input text does not match the expected syntax."""


class DomainError(ValueError):
    """Input is syntactically fine but mathematically invalid."""


def _over_digit_limit(what: str, err: ValueError) -> DomainError:
    """The error for output that int-to-str refused: err is its ValueError
    and what names the number."""
    return DomainError(f"{what} over Python's int-digit limit: {err}")


def int_text(n: int, what: str) -> str:
    """str(n) for program output.  A number over Python's int-digit limit
    raises DomainError naming what it is."""
    try:
        return str(n)
    except ValueError as err:  # int-to-str refuses numbers over the digit limit
        raise _over_digit_limit(what, err) from None
