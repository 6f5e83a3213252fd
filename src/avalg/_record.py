"""The one base of the package's value classes.

A :class:`Record` keeps its fields in ``__slots__`` and names the compared
and shown ones in ``_fields``.  Like a frozen dataclass it compares and
hashes as the tuple of those fields, shows them as ``Name(field=...)`` and
refuses assignment and deletion; a slot outside ``_fields`` (a stored hash,
a mark, a kernel) is neither compared nor shown.  A pickle or copy calls the
constructor on the fields, which checks them again and rebuilds the other
slots; a word or a tree pickles as its text instead.  ``dataclasses`` is
not used: it loads ``inspect`` and ``ast`` and generates every method at
class creation, a cost each command-line process paid at start-up.

The failures and the budget every layer shares live here too, so that the
command line names them without loading a layer.
"""

import re
import sys


class InputError(ValueError):
    """A caller's input is malformed, or outside what a function accepts."""


class BudgetExceeded(RuntimeError):
    """A request would build more words or trees than its budget allows, or
    print an integer past the interpreter's int-to-text limit."""


# what one request may build: the words a census generates, the trees
# schroeder-trees lists, the uni-vertices of a tree built from a word
DEFAULT_BUDGET = 10**7


def int_text_limit() -> int:
    """The int-to-text limit in digits; 0 is none, as on Python 3.10."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_limit(what: str) -> BudgetExceeded:
    return BudgetExceeded(f"{what} more digits than the int-to-text limit"
                          f" of {int_text_limit()}")


def printed(what: str, render, *args) -> str:
    """``render(*args)``, which only formats, so its ValueError is an integer
    past the int-to-text limit: a BudgetExceeded that begins with ``what``."""
    try:
        return render(*args)
    except ValueError:
        raise _past_limit(what) from None


# a rational in exponent notation as Fraction reads it: its whole digits,
# the digits after its point and the exponent
_EXPONENT = r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*"


def exact(what: str, text: str, read):
    """``read(text)`` for a reader of rationals such as Fraction (passed in,
    so that every process need not import it), which builds the power of ten
    of an exponent in full.  A value whose numerator or denominator would
    pass the int-to-text limit is a BudgetExceeded that begins with
    ``what``, refused before any power past the limit is built."""
    limit = int_text_limit()
    number = limit and ("e" in text or "E" in text) and re.fullmatch(_EXPONENT, text)
    if not number:
        return read(text)
    whole, point, exponent = (part.replace("_", "") for part in number.groups(""))
    if not (whole + point).strip("0"):  # zero, whatever its exponent
        return read(text[:number.start(3) - 1])
    # the value is m * 10**power with 0 < m < 10**len(whole + point): a
    # numerator of at least 10**power, or a denominator of more than
    # 10**(-power - len(whole + point)); else the power is cheap to build
    power = int(exponent) - len(point)
    if power >= limit or -power - len(whole + point) >= limit:
        raise _past_limit(what)
    value = read(text)
    if max(abs(value.numerator), value.denominator) >= 10**limit:
        raise _past_limit(what)
    return value


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values):
        """Set the fields, in the order of ``_fields``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()
