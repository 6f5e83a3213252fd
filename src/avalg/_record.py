"""The one base of the package's value classes.

A :class:`Record` keeps its fields in ``__slots__`` and names the compared
and shown ones in ``_fields``.  Like a frozen dataclass it compares and
hashes as the tuple of those fields, shows them as ``Name(field=...)`` and
refuses assignment and deletion; a slot outside ``_fields`` (a stored hash,
a mark, a kernel) is neither compared nor shown.  A pickle or copy carries
every slot that is set.  A class declared with ``frozen=False`` takes
assignment and is unhashable, like a plain dataclass.  ``dataclasses`` is
not used: it loads ``inspect`` and ``ast`` and generates every method at
class creation, a cost each command-line process paid at start-up.

The failures every layer shares live here too, so that the command line
names them without loading a layer.
"""

import sys


class InputError(ValueError):
    """A caller's input is malformed, or outside what a function accepts."""


class BudgetExceeded(RuntimeError):
    """A request would build more words or trees than its budget allows, or
    print an integer past the interpreter's int-to-text limit."""


def printed(what: str, render, *args) -> str:
    """``render(*args)``, which only formats, so its ValueError is an integer
    past the int-to-text limit: a BudgetExceeded that begins with ``what``."""
    try:
        return render(*args)
    except ValueError:
        raise BudgetExceeded(f"{what} more digits than the int-to-text limit"
                             f" of {sys.get_int_max_str_digits()}") from None


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

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

    def __setstate__(self, state: tuple) -> None:
        # the default state of a slotted object is (None, {set slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
