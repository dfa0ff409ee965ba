"""Uniform random rooted trees with a degree bound.

Pipeline: ``sizes_table`` counts unlabeled rooted trees per vertex count,
``row_pairs`` turns the counts into one table per tree size over (copies,
subtree-size) pairs, ``ranrut`` samples a tree from those tables in one
pass over its vertices, and ``prune`` pushes subtrees downward until every
vertex respects the degree bound, walking and renumbering only the
subtrees of over-bound vertices. The counts and the tables are grown on
demand, each size once per process, and serve every n.

A tree is its preorder parent list, ``parents``: vertex v is the v-th
vertex in preorder, the root is vertex 0 with parent -1, and the children
of a vertex, in order, are the vertices that name it as parent, in
increasing order.

``ranrut`` has two variants. ``same-copy`` attaches j structurally
identical copies of one recursive draw, which is the classic sampler whose
output is uniform over isomorphism classes. ``paper-literal`` draws the j
subtrees independently and is the default, which every snapshot stream
draws, even though its output distribution is not exactly uniform.

``enumerate_rooted_trees`` is an independent brute-force oracle (canonical
nested-tuple forms); it never consults the counting recurrence and is used
to cross-check it.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from functools import lru_cache

from .errors import InvalidParameters

RANRUT_VARIANTS = ("paper-literal", "same-copy")  # the first is the default
CHECK_TABLES_N_MAX = 16  # the largest n_max that check_tables enumerates


# Both grown on demand, never rebuilt. _COUNTS[i] is the number of
# unlabeled rooted trees on i vertices. Entry k >= 2 of _ROWS is ranrut's
# table for size k over the (j, d) pairs with j*d < k, in (j, d) order:
# (cumulative, outcomes, probabilities). The probability of (j, d) is
# d * t[k-j*d] * t[d] / ((k-1) * t[k]) as a 64-bit float, correctly rounded
# from the exact rational; only the counts of sizes up to k enter, so a row
# is the same for every n >= k. outcomes[i] is (k - j*d, (d,) * j), the size
# left after the draw and the sizes of the j subtrees it attaches. A copy of
# the last outcome stands at index len(cumulative), where bisect_left lands
# in the ~1e-16 rounding tail of the cumulative sums, so that tail draws the
# last pair.
_COUNTS = [0, 1]
_ROWS: list = [None, None]


def _grow_counts(n_max: int) -> list[int]:
    """_COUNTS, grown to n_max by the convolution recurrence, whose
    division by i-1 is always exact."""
    t = _COUNTS
    for i in range(len(t), n_max + 1):
        acc = 0
        for d in range(1, i):
            td = d * t[d]
            for j in range(1, (i - 1) // d + 1):
                acc += td * t[i - j * d]
        q, rem = divmod(acc, i - 1)
        if rem:  # the recurrence guarantees exact division
            raise ArithmeticError(f"inexact division in sizes_table at i={i}")
        t.append(q)
    return t


def _grow_rows(n: int) -> list:
    """_ROWS, grown to size n."""
    from fractions import Fraction  # only ranrut's tables need it, not every run

    t = _grow_counts(n)
    for k in range(len(_ROWS), n + 1):
        denom = (k - 1) * t[k]
        outcomes = []
        probs = []
        for j in range(1, k):
            for d in range(1, (k - 1) // j + 1):
                outcomes.append((k - j * d, (d,) * j))
                probs.append(float(Fraction(d * t[k - j * d] * t[d], denom)))
        outcomes.append(outcomes[-1])
        _ROWS.append((list(itertools.accumulate(probs)), outcomes, probs))
    return _ROWS


def sizes_table(n_max: int) -> list[int]:
    """Counts of unlabeled rooted trees on 1..n_max vertices.

    Exact integer arithmetic; entry i-1 is the count for i vertices.
    """
    if n_max < 1:
        raise InvalidParameters(f"n_max must be >= 1, got {n_max}")
    return _grow_counts(n_max)[1:n_max + 1]


def row_pairs(k: int) -> list[tuple[int, int, float]]:
    """(j, d, probability) triples for size k >= 3, in (j, d) order."""
    _, outcomes, probs = _grow_rows(k)[k]
    return [(len(sub_sizes), sub_sizes[0], p) for (_, sub_sizes), p in zip(outcomes, probs)]


def ranrut(n: int, rng: random.Random, variant: str = RANRUT_VARIANTS[0]) -> list[int]:
    """Sample the parent list of a rooted tree on n vertices; see the module
    docstring for the variants."""
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    if variant not in RANRUT_VARIANTS:
        raise InvalidParameters(f"unknown variant {variant!r}")
    tables = _ROWS if len(_ROWS) > n else _grow_rows(n)
    same_copy = variant == "same-copy"
    random_ = rng.random
    # A tree on k >= 3 vertices is j copies of a size-d subtree attached to
    # a tree on k - j*d vertices, so the pairs form a chain down to a base
    # of one or two vertices. A vertex draws its whole chain; its children
    # are the base's leaf, then each pair's subtrees from the last drawn
    # pair to the first. So the subtrees of a pair fill the vertex's range
    # from the end of what is left after the draw, and each is placed as
    # it is drawn. Every child's size, and so its preorder number, is
    # known once its parent has drawn, so the loop visits the vertices in
    # preorder, which is the order of the draws. Only vertices with at
    # least three in their subtree draw at all; smaller ones take a short
    # path.
    size_of = [1] * n  # subtree size, set by the parent's draw
    size_of[0] = n
    parents = [-1] * n
    copies = {}  # same-copy: copy root -> offset from the drawn subtree
    for v in range(n):
        size = size_of[v]
        if size < 3:
            if size == 2:
                parents[v + 1] = v
            continue
        if same_copy and v in copies:
            # the drawn subtree is complete: copy it, shifted by the offset;
            # the copied vertices keep size 1, so the loop passes over them
            offset = copies[v]
            src = v - offset
            for u in range(src + 1, src + size):
                parents[u + offset] = parents[u] + offset
            continue
        while size > 2:
            cumulative, outcomes, _ = tables[size]
            size, sub_sizes = outcomes[bisect_left(cumulative, random_())]
            # the pair's subtrees follow the size left after the draw
            first = c = v + size
            for d in sub_sizes:
                parents[c] = v
                size_of[c] = d
                c += d
            if same_copy and d > 2:
                # copies of one or two vertices need no draw to copy
                for root in range(first + d, c, d):
                    copies[root] = root - first
        if size == 2:
            parents[v + 1] = v
    return parents


def prune(parents: list[int], delta: int, rng: random.Random) -> list[int]:
    """Push subtrees downward until every vertex has graph degree <= delta.

    The root may keep up to delta children; every other vertex up to
    delta - 1 (its parent edge takes one slot). Vertices are visited depth
    first, left to right; excess subtrees are detached rightmost-first and
    re-attached below a uniformly chosen child, descending until a vertex
    with room is found. Depth never decreases and the vertex count is
    preserved. Returns a new parent list, numbered in its own preorder; a
    tree already within the bound comes back equal, and draws nothing. The
    input is left as it was.

    Only the preorder range ``[v, v + size(v))`` of each top-level
    over-bound vertex v (one with no over-bound ancestor) is walked and
    renumbered; every other entry is the input's. That is the whole-tree
    walk, draws included: re-attaching moves a subtree only below a
    descendant of the visited vertex, so no subtree changes its vertex
    count and no vertex leaves its range, and the ranges are walked in
    increasing order, which is the order in which the whole-tree walk
    reaches them. The uniform choices are ``rng.randrange``'s draws, taken
    from ``rng.getrandbits`` through ``_below``. A delta that no tree on
    ``len(parents)`` vertices meets raises InvalidParameters.
    """
    n = len(parents)
    if n >= 3 and delta < 2:
        raise InvalidParameters(f"no tree on {n} >= 3 vertices has max degree <= {delta}")
    if delta < 1:
        raise InvalidParameters("delta must be >= 1")
    full = delta - 1  # a non-root vertex with this many children has no room
    children = _children(parents)
    pruned = parents[:]
    if len(children[0]) > delta:
        tops = [0]
    else:
        tops = [v for v in range(1, n) if len(children[v]) > full]
    getrandbits = rng.getrandbits
    end = 0  # the end of the last walked range
    for top in tops:
        if top < end:
            continue  # nested in the range just walked
        # Each child list is final once its vertex is visited, so the
        # visit order is the pruned range's preorder.
        label = top
        stack = [top]
        above = [parents[top]]  # the number of each stacked vertex's parent
        while stack:
            v = stack.pop()
            pruned[label] = above.pop()
            kids = children[v]
            if kids:
                limit = delta if v == 0 else full
                while len(kids) > limit:
                    sub = kids.pop()  # rightmost subtree
                    # v is still full: descend through uniform children
                    # until one has room
                    w = kids[_below(getrandbits, len(kids))]
                    while len(children[w]) >= full:
                        w = children[w][_below(getrandbits, len(children[w]))]
                    children[w].append(sub)
                if len(kids) == 1:
                    # the common case at small delta (every non-root vertex
                    # at delta 2); a plain push is cheaper than two extends
                    stack.append(kids[0])
                    above.append(label)
                else:
                    stack.extend(reversed(kids))
                    above.extend([label] * len(kids))
            label += 1
        end = label
    return pruned


def _below(getrandbits, m: int) -> int:
    """``rng.randrange(m)`` for an int m >= 1, given ``rng.getrandbits``:
    CPython's ``Random._randbelow_with_getrandbits``, k-bit draws,
    k = m.bit_length(), until one falls below m."""
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def _children(parents: list[int]) -> list[list[int]]:
    """Each vertex's children, in order, from a preorder parent list."""
    children = [[] for _ in parents]
    for v in range(1, len(parents)):
        children[parents[v]].append(v)
    return children


def canonical_form(parents: list[int]) -> tuple:
    """Nested-tuple canonical form; equal iff rooted-isomorphic."""
    children = _children(parents)
    forms = [()] * len(parents)
    # in a preorder every child comes after its parent
    for v in reversed(range(len(parents))):
        forms[v] = tuple(sorted([forms[c] for c in children[v]]))
    return forms[0]


@lru_cache(maxsize=None)
def enumerate_rooted_trees(n: int) -> tuple:
    """All canonical forms on n vertices, by brute-force construction.

    Builds every multiset of smaller trees under the root, so it is
    independent of the counting recurrence.
    """
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    if n == 1:
        return ((),)
    forms = {tuple(sorted(ms)) for ms in _form_multisets(n - 1, n - 1)}
    return tuple(sorted(forms))


def _form_multisets(total, max_part):
    """Multisets of canonical forms whose sizes sum to total, parts <= max_part."""
    if total == 0:
        yield ()
        return
    for size in range(min(total, max_part), 0, -1):
        for copies in range(1, total // size + 1):
            for chosen in itertools.combinations_with_replacement(
                enumerate_rooted_trees(size), copies
            ):
                for rest in _form_multisets(total - copies * size, size - 1):
                    yield chosen + rest


def check_tables(n_max: int) -> tuple[bool, list[str]]:
    """Cross-check the counts table against the brute-force enumerator.

    Also verifies that every subtree-distribution row sums to 1 within
    1e-12. The enumeration grows about 3x in time and 2.3x in memory per
    vertex, so n_max above ``CHECK_TABLES_N_MAX`` raises InvalidParameters.
    Returns (ok, report lines).
    """
    if n_max > CHECK_TABLES_N_MAX:
        raise InvalidParameters(
            f"n_max must be at most {CHECK_TABLES_N_MAX}, got {n_max}")
    lines = []
    table = sizes_table(n_max)
    lines.append("sizes: " + ",".join(str(v) for v in table))
    ok = True
    for i in range(1, n_max + 1):
        expected = len(enumerate_rooted_trees(i))
        if table[i - 1] != expected:
            lines.append(
                f"FAIL: sizes_table[{i}] = {table[i - 1]}, enumeration gives {expected}"
            )
            ok = False
            break
    else:
        lines.append(f"enumeration check passed for sizes 1..{n_max}")
    if ok and n_max >= 3:
        worst = 0.0
        for k in range(3, n_max + 1):
            total = sum(p for _, _, p in row_pairs(k))
            worst = max(worst, abs(total - 1.0))
        if worst > 1e-12:
            lines.append(f"FAIL: distribution row sum off by {worst:.3e}")
            ok = False
        else:
            lines.append(f"distribution row sums within {worst:.3e} of 1")
    lines.append("PASS" if ok else "FAIL")
    return ok, lines
