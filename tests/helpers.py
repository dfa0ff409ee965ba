"""Shared test oracles, kept independent of the library's own update paths."""

import numpy as np

from adncount import Topology


def gnp_oracle(n, p, rng):
    """G(n, p) by one ``rng.random()`` call per pair (u, v), u < v, in
    row-major order, through the validating constructor."""
    return Topology(n, [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ])


def dense_share_matrix(topology, delta):
    """Share-fraction matrix built entry by entry from its definition.

    F[i][j] is the fraction of node j's energy that node i receives in one
    round: non-leader j keeps 1 - deg(j)/(2*delta) and gives 1/(2*delta) to
    each neighbor; the leader's column is the unit vector (it sends
    nothing). The dense product F @ e is the oracle for the sparse
    per-edge collection update.
    """
    n = topology.n
    share = 1.0 / (2.0 * delta)
    F = np.zeros((n, n))
    F[0, 0] = 1.0
    for j in range(1, n):
        F[j, j] = 1.0 - topology.degrees[j] * share
    for u, v in topology.edges:
        if v != 0:
            F[u, v] = share
        if u != 0:
            F[v, u] = share
    return F


def neighbor_lists(topology):
    """Each node's neighbours in sorted edge order."""
    lists = [[] for _ in range(topology.n)]
    for u, v in topology.edges:
        lists[u].append(v)
        lists[v].append(u)
    return tuple(tuple(ns) for ns in lists)


def is_connected(topology):
    if topology.n == 1:
        return True
    adjacent = neighbor_lists(topology)
    seen = [False] * topology.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in adjacent[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == topology.n


def parent_array(tree):
    """Each vertex's parent in a ``RootedTree`` (None for the root)."""
    parents = [None] * tree.nodes
    for v, kids in enumerate(tree.children):
        for c in kids:
            if parents[c] is not None or c == tree.root:
                raise ValueError(f"vertex {c} has more than one parent")
            parents[c] = v
    return parents


def validate_tree(tree):
    """Check the tree invariants: n-1 edges, one parent each, connected."""
    n = tree.nodes
    if not 0 <= tree.root < n:
        raise ValueError("root out of range")
    parents = parent_array(tree)
    edge_count = sum(len(kids) for kids in tree.children)
    if edge_count != n - 1:
        raise ValueError(f"expected {n - 1} edges, found {edge_count}")
    # reachability from the root covers everything iff acyclic+connected
    seen = 0
    stack = [tree.root]
    while stack:
        v = stack.pop()
        seen += 1
        stack.extend(tree.children[v])
    if seen != n:
        raise ValueError("tree is not connected")
    for v in range(n):
        if v != tree.root and parents[v] is None:
            raise ValueError(f"vertex {v} has no parent")


def tree_depth(tree):
    """Longest root-to-leaf path, in edges."""
    best = 0
    stack = [(tree.root, 0)]
    while stack:
        v, d = stack.pop()
        if d > best:
            best = d
        stack.extend((c, d + 1) for c in tree.children[v])
    return best


def graph_degree(tree, v):
    return len(tree.children[v]) + (0 if v == tree.root else 1)


def max_graph_degree(tree):
    return max(graph_degree(tree, v) for v in range(tree.nodes))


def degree_sequence(topology):
    return sorted(int(d) for d in topology.degrees)


def is_path_graph(topology):
    n = topology.n
    if n == 1:
        return len(topology.edges) == 0
    if n == 2:
        return degree_sequence(topology) == [1, 1]
    return (
        is_connected(topology)
        and degree_sequence(topology) == [1, 1] + [2] * (n - 2)
    )


def verification_rounds_oracle(k, c):
    """High-precision evaluation of 1 + ceil(k / (1 - 1/k^c))."""
    import mpmath

    with mpmath.workdps(60):
        val = k / (1 - mpmath.mpf(k) ** (-mpmath.mpf(str(c))))
        return 1 + int(mpmath.ceil(val))


def collection_budget_oracle(k, delta):
    """High-precision evaluation of k * ceil((2*delta)^k * ln k)."""
    import mpmath

    with mpmath.workdps(60):
        return k * int(mpmath.ceil(mpmath.mpf((2 * delta) ** k) * mpmath.log(k)))
