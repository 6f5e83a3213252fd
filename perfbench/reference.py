"""Reference values and invariants that the benchmark checks outputs against.

Nothing here imports avalg: the checks must not share code with the
program they judge.  Word and tree texts are read with a few regular
expressions instead of the package's parsers.
"""

import re

# A006318, the large Schroeder numbers, as vendored in the repository's
# acceptance tests; the recurrence below must reproduce them.
VENDORED_SCHROEDER = (
    1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446, 27297738,
)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CLOSE = re.compile(r"\](?:\^(\d+))?")


def schroeder_numbers(count):
    """s_0..s_(count-1) by (n+1) s_n = 3(2n-1) s_(n-1) - (n-2) s_(n-2)."""
    s = [1, 2]
    for n in range(2, count):
        num = 3 * (2 * n - 1) * s[n - 1] - (n - 2) * s[n - 2]
        if num % (n + 1):
            raise ArithmeticError(f"recurrence is not integral at n={n}")
        s.append(num // (n + 1))
    return s[:count]


def check_recurrence():
    """The recurrence agrees with the vendored values; raises otherwise."""
    got = tuple(schroeder_numbers(len(VENDORED_SCHROEDER)))
    if got != VENDORED_SCHROEDER:
        raise AssertionError(f"Schroeder recurrence gives {got}")


def letters(text):
    """Letter symbols of a word text in reading order."""
    return _IDENT.findall(text)


def bracket_power(text):
    """Total number of bracket layers, counting ``]^s`` as ``s``."""
    return sum(int(m.group(1) or 1) for m in _CLOSE.finditer(text))


def splice(outer, index, inner):
    """Replace the ``index``-th letter (1-based) of a word text by a word text."""
    matches = list(_IDENT.finditer(outer))
    m = matches[index - 1]
    return f"{outer[:m.start()]} {inner} {outer[m.end():]}"


def tree_leaves(tree_text):
    return tree_text.count("L")


def tree_unis(tree_text):
    return tree_text.count("U")
