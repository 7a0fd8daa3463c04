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
