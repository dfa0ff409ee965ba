"""Uniform random rooted trees with a degree bound.

Pipeline: ``sizes_table`` counts unlabeled rooted trees per vertex count,
``SubtreeDistribution`` turns the counts into per-size tables over
(copies, subtree-size) pairs, ``ranrut`` samples a tree recursively from
those tables, and ``prune`` pushes subtrees downward until every vertex
respects the degree bound.

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


@dataclass
class RootedTree:
    """Ordered rooted tree over vertex indices 0..nodes-1.

    ``children[v]`` lists v's children in insertion order, so "rightmost
    subtree" is well defined.
    """

    children: list[list[int]]
    root: int = 0

    @property
    def nodes(self) -> int:
        return len(self.children)

    def parent_array(self) -> list[int | None]:
        parents: list[int | None] = [None] * self.nodes
        for v, kids in enumerate(self.children):
            for c in kids:
                if parents[c] is not None or c == self.root:
                    raise ValueError(f"vertex {c} has more than one parent")
                parents[c] = v
        return parents

    def validate(self) -> None:
        """Check the tree invariants: n-1 edges, one parent each, connected."""
        n = self.nodes
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        parents = self.parent_array()
        edge_count = sum(len(kids) for kids in self.children)
        if edge_count != n - 1:
            raise ValueError(f"expected {n - 1} edges, found {edge_count}")
        # reachability from the root covers everything iff acyclic+connected
        seen = 0
        stack = [self.root]
        while stack:
            v = stack.pop()
            seen += 1
            stack.extend(self.children[v])
        if seen != n:
            raise ValueError("tree is not connected")
        for v in range(n):
            if v != self.root and parents[v] is None:
                raise ValueError(f"vertex {v} has no parent")

    def depth(self) -> int:
        """Longest root-to-leaf path, in edges."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            v, d = stack.pop()
            if d > best:
                best = d
            stack.extend((c, d + 1) for c in self.children[v])
        return best

    def graph_degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == self.root else 1)

    def max_graph_degree(self) -> int:
        return max(self.graph_degree(v) for v in range(self.nodes))


def sizes_table(n_max: int) -> list[int]:
    """Counts of unlabeled rooted trees on 1..n_max vertices.

    Exact integer arithmetic; entry i-1 is the count for i vertices. The
    convolution recurrence divides by i-1, which is always exact.
    """
    if n_max < 1:
        raise InvalidParameters(f"n_max must be >= 1, got {n_max}")
    return list(_sizes_cached(n_max))


@lru_cache(maxsize=None)
def _sizes_cached(n_max: int) -> tuple[int, ...]:
    t = [0] * (n_max + 1)  # 1-indexed
    t[1] = 1
    if n_max >= 2:
        t[2] = 1
    for i in range(3, n_max + 1):
        acc = 0
        for d in range(1, i):
            td = d * t[d]
            for j in range(1, (i - 1) // d + 1):
                acc += td * t[i - j * d]
        q, rem = divmod(acc, i - 1)
        if rem:  # the recurrence guarantees exact division
            raise ArithmeticError(f"inexact division in sizes_table at i={i}")
        t[i] = q
    return tuple(t[1:])


class SubtreeDistribution:
    """Per-size probability tables over (j, d) pairs with j*d < k.

    p[k][(j, d)] = d * t[k-j*d] * t[d] / ((k-1) * t[k]), stored as 64-bit
    floats (each entry correctly rounded from the exact rational). Rows are
    kept for k = 3..n; rows up to 100 are filled eagerly, larger ones on
    demand to keep memory linear in practice.
    """

    _EAGER_LIMIT = 100

    def __init__(self, counts: list[int], n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(counts) < n:
            raise ValueError(f"counts table covers {len(counts)} < n={n} sizes")
        self._t = (0,) + tuple(counts)  # 1-indexed
        self.n = n
        self._rows: dict[int, tuple] = {}
        for k in range(3, min(n, self._EAGER_LIMIT) + 1):
            self._row(k)

    def _row(self, k: int) -> tuple:
        row = self._rows.get(k)
        if row is None:
            t = self._t
            denom = (k - 1) * t[k]
            pairs = []
            probs = []
            for j in range(1, k):
                for d in range(1, (k - 1) // j + 1):
                    pairs.append((j, d))
                    probs.append(float(Fraction(d * t[k - j * d] * t[d], denom)))
            row = (pairs, probs, list(itertools.accumulate(probs)))
            self._rows[k] = row
        return row

    def prob(self, k: int, j: int, d: int) -> float:
        """Probability of drawing (j, d) at size k; 0 for invalid pairs."""
        if k < 3 or j < 1 or d < 1 or j * d >= k:
            return 0.0
        pairs, probs, _ = self._row(k)
        return probs[pairs.index((j, d))]

    def row_pairs(self, k: int) -> list[tuple[int, int, float]]:
        """(j, d, probability) triples for size k, in (j, d) order."""
        pairs, probs, _ = self._row(k)
        return [(j, d, p) for (j, d), p in zip(pairs, probs)]

    def draw(self, k: int, rng: random.Random) -> tuple[int, int]:
        """Draw a (j, d) pair for size k using one uniform variate."""
        if k < 3:
            raise ValueError("draw is defined for k >= 3 only")
        pairs, _, cumulative = self._row(k)
        u = rng.random()
        i = bisect_left(cumulative, u)
        if i >= len(pairs):  # guard the ~1e-16 rounding tail
            i = len(pairs) - 1
        return pairs[i]


def ranrut(
    n: int,
    dist: SubtreeDistribution | None,
    rng: random.Random,
    variant: str = "paper-literal",
) -> RootedTree:
    """Sample a rooted tree on n vertices; see the module docstring for variants.

    Vertices are numbered in preorder with the root at 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in RANRUT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n > 2:
        if dist is None:
            raise ValueError("a SubtreeDistribution is required for n > 2")
        if dist.n < n:
            raise ValueError(f"distribution covers sizes up to {dist.n} < {n}")
    children: list[list[int]] = []

    def grow(size: int) -> int:
        """Append a random subtree on ``size`` vertices; return its root."""
        v = len(children)
        children.append([])
        # A tree on k >= 3 vertices is j copies of a size-d subtree attached
        # to a tree on k - j*d vertices, so the pairs form a chain down to a
        # base of one or two vertices. The whole chain is drawn first; the
        # subtrees then grow from the base outward, each in full before the
        # next, which keeps both the draw order and the preorder numbering.
        chain = []
        while size > 2:
            j, d = dist.draw(size, rng)
            chain.append((j, d))
            size -= j * d
        kids = children[v]
        if size == 2:
            kids.append(grow(1))
        for j, d in reversed(chain):
            if variant == "same-copy":
                first = grow(d)
                kids.append(first)
                # the copy's vertices follow in preorder, shifted by offset
                for _ in range(j - 1):
                    offset = len(children) - first
                    kids.append(first + offset)
                    for u in range(first, first + d):
                        children.append([c + offset for c in children[u]])
            else:
                for _ in range(j):
                    kids.append(grow(d))
        return v

    grow(n)
    return RootedTree(children=children, root=0)


def prune(tree: RootedTree, delta: int, rng: random.Random) -> RootedTree:
    """Push subtrees downward until every vertex has graph degree <= delta.

    The root may keep up to delta children; every other vertex up to
    delta - 1 (its parent edge takes one slot). Vertices are visited depth
    first, left to right; excess subtrees are detached rightmost-first and
    re-attached below a uniformly chosen child, descending until a vertex
    with room is found. Depth never decreases and the vertex count is
    preserved. Returns the input unchanged when it already satisfies the
    bound; otherwise a new tree with the same vertex indices and root, and
    the input is left as it was.
    """
    if tree.nodes >= 3 and delta < 2:
        raise InfeasibleDegreeBound(
            f"no tree on {tree.nodes} >= 3 vertices has max degree <= {delta}"
        )
    if delta < 1:
        raise InfeasibleDegreeBound("delta must be >= 1")
    children = [list(kids) for kids in tree.children]
    changed = False
    stack = [tree.root]
    while stack:
        v = stack.pop()
        kids = children[v]
        limit = delta if v == tree.root else delta - 1
        while len(kids) > limit:
            sub = kids.pop()  # rightmost subtree
            # v is still full: descend through uniform children until one
            # has room (a non-root vertex keeps at most delta - 1 children)
            w = kids[rng.randrange(len(kids))]
            while len(children[w]) >= delta - 1:
                w = children[w][rng.randrange(len(children[w]))]
            children[w].append(sub)
            changed = True
        stack.extend(reversed(kids))
    if not changed:
        return tree
    return RootedTree(children=children, root=tree.root)


def canonical_form(tree: RootedTree) -> tuple:
    """Nested-tuple canonical form; equal iff rooted-isomorphic."""

    def canon(v):
        return tuple(sorted(canon(c) for c in tree.children[v]))

    return canon(tree.root)


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


def check_tables(n_max: int, table: list[int] | None = None) -> tuple[bool, list[str]]:
    """Cross-check a counts table against the brute-force enumerator.

    Also verifies that every subtree-distribution row sums to 1 within
    1e-12. ``table`` overrides the computed table (negative-control hook).
    Returns (ok, report lines).
    """
    lines = []
    if table is None:
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
        dist = SubtreeDistribution(table, n_max)
        worst = 0.0
        for k in range(3, n_max + 1):
            total = sum(p for _, _, p in dist.row_pairs(k))
            worst = max(worst, abs(total - 1.0))
        if worst > 1e-12:
            lines.append(f"FAIL: distribution row sum off by {worst:.3e}")
            ok = False
        else:
            lines.append(f"distribution row sums within {worst:.3e} of 1")
    lines.append("PASS" if ok else "FAIL")
    return ok, lines
