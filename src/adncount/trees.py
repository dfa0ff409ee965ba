"""Uniform random rooted trees with a degree bound.

Pipeline: ``sizes_table`` counts unlabeled rooted trees per vertex count,
``row_pairs`` turns the counts into one table per tree size over (copies,
subtree-size) pairs, ``ranrut`` samples a tree from those tables in one
pass over its vertices, and ``prune`` pushes subtrees downward until every
vertex respects the degree bound. The counts and the tables are grown on
demand, each size once per process, and serve every n. A tree is its
preorder parent list, which is all that ``topology.tree_to_topology``
reads.

``ranrut`` has two variants. ``same-copy`` attaches j structurally
identical copies of one recursive draw, which is the classic sampler whose
output is uniform over isomorphism classes. ``paper-literal`` draws the j
subtrees independently and is the default used by the sweep harness, even
though its output distribution is not exactly uniform.

``enumerate_rooted_trees`` is an independent brute-force oracle (canonical
nested-tuple forms); it never consults the counting recurrence and is used
to cross-check it.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InfeasibleDegreeBound, InvalidParameters

RANRUT_VARIANTS = ("paper-literal", "same-copy")
CHECK_TABLES_N_MAX = 16  # the largest n_max that check_tables enumerates


@dataclass
class RootedTree:
    """Ordered rooted tree on vertices 0..nodes-1, numbered in preorder.

    ``parents[v]`` is the parent of vertex v; the root is vertex 0, with
    parent -1. The children of a vertex, in order, are the vertices that
    name it as parent, in increasing order.
    """

    parents: list[int]

    @property
    def nodes(self) -> int:
        return len(self.parents)


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


def ranrut(n: int, rng: random.Random, variant: str = "paper-literal") -> RootedTree:
    """Sample a rooted tree on n vertices; see the module docstring for variants.

    Vertices are numbered in preorder with the root at 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in RANRUT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    tables = _ROWS if len(_ROWS) > n else _grow_rows(n)
    same_copy = variant == "same-copy"
    random_ = rng.random
    # A tree on k >= 3 vertices is j copies of a size-d subtree attached to
    # a tree on k - j*d vertices, so the pairs form a chain down to a base
    # of one or two vertices. A vertex draws its whole chain; its children
    # are the base's leaf, then each pair's subtrees from the last drawn
    # pair to the first. Every child's size, and so its preorder number,
    # is known once its parent has drawn, so the loop visits the vertices
    # in preorder, which is the order of the draws. Only vertices with at
    # least three in their subtree draw at all; leaves take a short path.
    size_of = [1] * n  # subtree size, set by the parent's draw
    size_of[0] = n
    parents = [-1] * n
    copies = {}  # same-copy: copy root -> offset from the drawn subtree
    v = 0
    while v < n:
        size = size_of[v]
        if size == 1:
            v += 1
            continue
        if same_copy and v in copies:
            # the drawn subtree is complete: copy it, shifted by the offset
            offset = copies[v]
            src = v - offset
            for u in range(src + 1, src + size):
                parents[u + offset] = parents[u] + offset
            v += size
            continue
        c = v + 1
        chain = []
        while size > 2:
            cumulative, outcomes, _ = tables[size]
            size, sub_sizes = outcomes[bisect_left(cumulative, random_())]
            chain.append(sub_sizes)
        if size == 2:
            parents[c] = v
            c += 1
        for sub_sizes in reversed(chain):
            first = c
            for d in sub_sizes:
                parents[c] = v
                size_of[c] = d
                if same_copy and c != first:
                    copies[c] = c - first
                c += d
        v += 1
    return RootedTree(parents)


def prune(tree: RootedTree, delta: int, rng: random.Random) -> RootedTree:
    """Push subtrees downward until every vertex has graph degree <= delta.

    The root may keep up to delta children; every other vertex up to
    delta - 1 (its parent edge takes one slot). Vertices are visited depth
    first, left to right; excess subtrees are detached rightmost-first and
    re-attached below a uniformly chosen child, descending until a vertex
    with room is found. Depth never decreases and the vertex count is
    preserved. Returns the input itself when it already satisfies the
    bound; otherwise a new tree, numbered in its own preorder, and the
    input is left as it was.
    """
    n = tree.nodes
    if n >= 3 and delta < 2:
        raise InfeasibleDegreeBound(
            f"no tree on {n} >= 3 vertices has max degree <= {delta}"
        )
    if delta < 1:
        raise InfeasibleDegreeBound("delta must be >= 1")
    full = delta - 1  # a non-root vertex with this many children has no room
    counts = [0] * n
    for p in itertools.islice(tree.parents, 1, None):
        counts[p] += 1
    counts[0] -= 1  # the root has no parent edge
    if max(counts) <= full:
        return tree
    children = _children(tree.parents)
    # Re-attaching only ever moves a subtree below a descendant of the
    # visited vertex, so each child list is final once its vertex is
    # visited: the visit order is the pruned tree's preorder.
    parents = []
    stack = [0]
    above = [-1]  # preorder index of each stacked vertex's parent
    while stack:
        v = stack.pop()
        label = len(parents)
        parents.append(above.pop())
        kids = children[v]
        if not kids:
            continue
        limit = delta if v == 0 else full
        while len(kids) > limit:
            sub = kids.pop()  # rightmost subtree
            # v is still full: descend through uniform children until one
            # has room
            w = kids[rng.randrange(len(kids))]
            while len(children[w]) >= full:
                w = children[w][rng.randrange(len(children[w]))]
            children[w].append(sub)
        if len(kids) == 1:
            # the common case at small delta (every non-root vertex at
            # delta 2); a plain push is cheaper than the two extends
            stack.append(kids[0])
            above.append(label)
        else:
            stack.extend(reversed(kids))
            above.extend([label] * len(kids))
    return RootedTree(parents)


def _children(parents: list[int]) -> list[list[int]]:
    """Each vertex's children, in order, from a preorder parent list."""
    children = [[] for _ in parents]
    for v in range(1, len(parents)):
        children[parents[v]].append(v)
    return children


def canonical_form(tree: RootedTree) -> tuple:
    """Nested-tuple canonical form; equal iff rooted-isomorphic."""
    children = _children(tree.parents)
    forms = [()] * tree.nodes
    # in a preorder every child comes after its parent
    for v in reversed(range(tree.nodes)):
        forms[v] = tuple(sorted([forms[c] for c in children[v]]))
    return forms[0]


@lru_cache(maxsize=None)
def enumerate_rooted_trees(n: int) -> tuple:
    """All canonical forms on n vertices, by brute-force construction.

    Builds every multiset of smaller trees under the root, so it is
    independent of the counting recurrence.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
