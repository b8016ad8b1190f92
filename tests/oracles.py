"""Independent reference implementations used as test oracles.

Everything here is deliberate brute force, written without reusing the
package's search, closure, or quotient machinery, so agreement is meaningful.
"""

from __future__ import annotations

from collections import deque
from itertools import product


def compose(f, g):
    # (f*g)(x) = f(g(x)), matching the catalog's convention
    return tuple(f[g[x]] for x in range(len(f)))


def perm_name(p):
    return "".join(map(str, p))


def transformation_table(maps):
    """Cayley table (as index lists) for a composition-closed list of maps."""
    idx = {f: i for i, f in enumerate(maps)}
    return [[idx[compose(f, g)] for g in maps] for f in maps]


def first_assoc_violation(table):
    """Hand enumeration of all triples, lexicographic order."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (i, j, k)
    return None


def magma_closure(table, generators):
    """Smallest set holding ``generators`` and every product of two members, by fixpoint."""
    members = set(generators)
    while True:
        grown = members | {table[x][y] for x in members for y in members}
        if grown == members:
            return members
        members = grown


def all_associative_tables(n):
    """Every associative Cayley table on {0..n-1}; feasible for n <= 3."""
    cells = n * n
    for flat in product(range(n), repeat=cells):
        table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if first_assoc_violation(table) is None:
            yield table


def mul_word(m, word):
    """Fold a word over a Monoid1 table, starting from the identity."""
    acc = m.identity_index
    for x in word:
        acc = m.table[acc][x]
    return acc


def naive_search_one_var(m, g, bound):
    """Generate-all-words-and-filter search; returns (a, b, c) or None.

    Canonical order contract: smallest |a| first, then lexicographically
    smallest (a, b, c).
    """
    base = range(m.base.order)
    t = m.table
    for n in range(1, bound + 1):
        best = None
        for a in product(base, repeat=n):
            sa = sorted(a)
            va = mul_word(m, a)
            for k in range(n + 1):
                for b in product(base, repeat=k):
                    for c in product(base, repeat=n - k):
                        if sorted(b + c) != sa:
                            continue
                        if t[t[mul_word(m, b)][g]][mul_word(m, c)] != va:
                            continue
                        cand = (a, b, c)
                        if best is None or cand < best:
                            best = cand
        if best is not None:
            return best
    return None


def naive_search_two_var(m, u, v, bound):
    """Generate-all-word-pairs-and-filter search; returns (a, b, c, d) or None."""
    base = range(m.base.order)
    t = m.table
    for n in range(1, bound + 1):
        combos = []
        for k in range(n + 1):
            for a in product(base, repeat=k):
                for b in product(base, repeat=n - k):
                    combos.append((a, b, sorted(a + b), mul_word(m, a), mul_word(m, b)))
        best = None
        for a, b, mset_l, va, vb in combos:
            left = t[t[va][u]][vb]
            for c, d, mset_r, vc, vd in combos:
                if mset_r != mset_l:
                    continue
                if t[t[vc][v]][vd] != left:
                    continue
                cand = (a, b, c, d)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            return best
    return None


def subgroup_closure(table, generators):
    """Closure of a generating set under products, by plain set fixpoint."""
    members = frozenset(generators)
    while True:
        grown = members | {table[a][b] for a in members for b in members}
        if grown == members:
            return set(members)
        members = grown


def brute_commutators(table, identity):
    """All commutator values, computed with inverses found by table scan."""
    n = len(table)
    inv = {}
    for g in range(n):
        for h in range(n):
            if table[g][h] == identity and table[h][g] == identity:
                inv[g] = h
                break
    values = set()
    for x in range(n):
        for y in range(n):
            values.add(table[table[table[x][y]][inv[x]]][inv[y]])
    return values, inv


def coset_partition(table, subgroup, inv):
    """Partition by u ~ v iff u * v^-1 in subgroup, as a frozenset of frozensets."""
    n = len(table)
    classes = set()
    for g in range(n):
        coset = frozenset(h for h in range(n) if table[g][inv[h]] in subgroup)
        classes.add(coset)
    return classes


def min_commutator_product_length(table, identity, target, max_k):
    """Smallest k <= max_k with target a product of k commutators, or None."""
    if target == identity:
        return 0
    values, _ = brute_commutators(table, identity)
    reach = {identity}
    for k in range(1, max_k + 1):
        reach = {table[r][c] for r in reach for c in values}
        if target in reach:
            return k
    return None


def bfs_commutator_decomposition(group, g):
    """Per-call breadth-first commutator decomposition: the pairs for g, or None.

    Recomputes every commutator and the whole search on each call. Edges are
    tried in ascending commutator value, each value labelled with its first
    (x, y) preimage in lexicographic order; None means g lies outside the
    commutator subgroup.
    """
    t = group.base.table
    inv = group.inverse
    preimage = {}
    for x in range(group.order):
        for y in range(group.order):
            c = t[t[t[x][y]][inv[x]]][inv[y]]
            if c not in preimage:
                preimage[c] = (x, y)
    edges = sorted(preimage)
    parent = {group.identity: None}
    queue = deque([group.identity])
    while queue:
        h = queue.popleft()
        for c in edges:
            nxt = t[h][c]
            if nxt not in parent:
                parent[nxt] = (h, c)
                queue.append(nxt)
    if g not in parent:
        return None
    pairs = []
    cur = g
    while parent[cur] is not None:
        back, c = parent[cur]
        pairs.append(preimage[c])
        cur = back
    pairs.reverse()
    return tuple(pairs)


def set_partitions(n):
    """Every partition of {0..n-1} as a tuple of class ids in first-appearance order."""

    def grow(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            yield from grow(prefix + [c], max(used, c + 1))

    yield from grow([], 0)


def commutative_congruences(table):
    """Every partition that is compatible with the table and has a commutative quotient."""
    n = len(table)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for cls in set_partitions(n):
        if any(cls[table[x][y]] != cls[table[y][x]] for x, y in pairs):
            continue
        if all(
            cls[table[u][v]] == cls[table[u2][v2]]
            for u, u2 in pairs
            if cls[u] == cls[u2]
            for v, v2 in pairs
            if cls[v] == cls[v2]
        ):
            yield cls


def least_congruence(table, pairs):
    """Smallest congruence containing ``pairs``, as class ids in first-appearance order.

    Merges classes until every left and right translate, by every element, of
    two related elements is related; no generating set, no union-find.
    """
    n = len(table)
    cls = list(range(n))

    def merge(a, b):
        old, new = cls[b], cls[a]
        if old != new:
            for x in range(n):
                if cls[x] == old:
                    cls[x] = new
            return True
        return False

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if cls[u] != cls[v]:
                    continue
                for t in range(n):
                    changed |= merge(table[t][u], table[t][v])
                    changed |= merge(table[u][t], table[v][t])
    ids = {}
    return tuple(ids.setdefault(c, len(ids)) for c in cls)


def all_pairs_kappa(table):
    """κ from every pair (xy, yx), by ``least_congruence``."""
    n = len(table)
    return least_congruence(table, [(table[x][y], table[y][x]) for x in range(n) for y in range(n)])
