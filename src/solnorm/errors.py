"""Exception types shared across the package.

Two kinds of failure are kept apart because the command line maps them to
different exit codes: malformed input text (ParseError) versus well-formed
input that violates a mathematical precondition (DomainError).
"""


class ParseError(ValueError):
    """Input text does not match the expected syntax."""


class DomainError(ValueError):
    """Input is syntactically fine but mathematically invalid."""


def _over_digit_limit(what: str, err: ValueError, kind: type[ValueError] = DomainError) -> ValueError:
    """The error of class kind for a number over Python's int-digit limit:
    err is the ValueError that int-to-str or int() raised and what names
    the number."""
    return kind(f"{what} over Python's int-digit limit: {err}")


def int_text(n: int, what: str) -> str:
    """str(n) for program output.  A number over Python's int-digit limit
    raises DomainError naming what it is."""
    try:
        return str(n)
    except ValueError as err:  # int-to-str refuses numbers over the digit limit
        raise _over_digit_limit(what, err) from None


def class_bits(*coordinates: int) -> tuple[int, ...]:
    """The coordinates of a Z2-homology class, each 0 or 1; any other
    raises DomainError naming them all."""
    if not all(bit in (0, 1) for bit in coordinates):
        texts = ", ".join(int_text(x, "class coordinate") for x in coordinates)
        raise DomainError(f"class coordinates must be bits: ({texts})")
    return coordinates
