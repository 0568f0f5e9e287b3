"""The paper's definitions of the operations and relations on hesitant fuzzy
elements, written plainly: the oracle that the kernels' set loops, the exact
law evaluation and the grid HFE are tested against.

An element is a non-empty descending tuple of degrees, ints on one grid or
`Fraction`s. The definitions only compare, add and multiply degrees, so one
copy serves both: ⊂m compares the means cross-multiplied. A relation is
named by its kernel code, `REL_P` … `REL_N` or `REL_SOT` (⊂s or ⊂t).
"""

from hesitant._kernel._pykernel import REL_A, REL_M, REL_P, REL_S, REL_SOT, REL_T


def union(a, b):
    """The degrees of a + b that are >= the larger minimum, descending."""
    lo = max(a[-1], b[-1])
    return tuple(sorted((g for g in a + b if g >= lo), reverse=True))


def inter(a, b):
    """The degrees of a + b that are <= the smaller maximum, descending."""
    hi = min(a[0], b[0])
    return tuple(sorted((g for g in a + b if g <= hi), reverse=True))


def compl(a, one):
    """{one - g}, descending."""
    return tuple(one - g for g in reversed(a))


def rel(code, a, b):
    """a ⊂code b."""
    if code == REL_P:
        return a[0] <= b[0]
    if code == REL_A:
        return a[0] <= b[0] and a[-1] <= b[-1]
    if code == REL_M:  # mean(a) <= mean(b)
        return sum(a) * len(b) <= sum(b) * len(a)
    if code == REL_S:
        return len(a) >= len(b) and all(b[i] >= a[i] for i in range(len(b)))
    if code == REL_T:
        return len(a) < len(b) and all(b[i] >= a[i] for i in range(len(a)))
    if code == REL_SOT:
        return rel(REL_S, a, b) or rel(REL_T, a, b)
    return a[0] <= b[-1]  # REL_N
