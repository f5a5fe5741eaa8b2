"""JSON-friendly conversion helpers shared by the CLI and the verifier.

Rationals are serialized as "p/q" strings, denominator always present,
so values round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def format_rational(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# The interpreter's default digit limit for int strings: a longer integer is
# already refused, and an exponent past it would make Fraction build a power
# of ten of that many digits.
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    body = text.strip()
    _, e, exponent = body.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
        raise ParseError(f"bad rational {body!r}")
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {body!r}") from exc


def jsonable(x):
    """Recursively convert tuples, sets, and Fractions for json.dumps."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    return x
