"""Exception types shared across the package."""

import sys


class KaxError(Exception):
    """Base class for package errors."""


class BudgetExceededError(KaxError):
    """An enumeration would exceed the configured work budget."""


class InternalError(KaxError):
    """An identity the implementation relies on failed to hold.

    Raised e.g. when a Mobius sum is not divisible by the period, or a
    Witt structure polynomial comes out non-integral.  Always a bug.
    """


def digit_limit_error(what: str) -> BudgetExceededError:
    """The error for an integer too long to print in decimal.

    Raise it from the ValueError that str() gives past the interpreter's
    int-to-str limit (sys.get_int_max_str_digits), so that an answer too
    large to print is a budget error, not a usage error.
    """
    return BudgetExceededError(
        f"{what} has more than {sys.get_int_max_str_digits()} decimal digits,"
        " the interpreter's int-to-str limit"
    )


def factor_digit_limit_error(kind: str, m_prime: int | None, s: int | None) -> BudgetExceededError:
    """The budget error for an integer of a factor too long to print."""
    where = f" at m'={m_prime}, s={s}" if m_prime is not None else ""
    return digit_limit_error(f"an integer of the {kind} factor{where}")
