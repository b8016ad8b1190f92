"""Independent reference implementations used as test oracles, and the tests' table corpus.

Every oracle is deliberate brute force, written without reusing the
package's search, closure, or quotient machinery, so agreement is meaningful.

The corpus at the end gives each family of tables the tests share one cached
builder: the labelled tables and the isomorphism classes of each small order,
random transformation semigroups, Rees matrix semigroups and an order-96 group
of commutator width two.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import permutations, product
from types import SimpleNamespace


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
    """Every associative Cayley table on {0..n-1}, in ascending row-major order.

    Backtracking fills the cells row by row, trying each value in ascending
    order, and keeps a value only if no triple with all four of its products
    (xy, yz, (xy)z and x(yz)) filled breaks associativity. A triple has them
    all first when the cell just filled is one of them, so only those triples
    are checked: the cell (i, j) = v as xy, as yz, as (xy)z and as x(yz).
    3492 tables at n = 4 (OEIS A023814).
    """
    t = [[None] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    r = range(n)

    def at(x, y):
        return None if x is None or y is None else t[x][y]

    def clash(left, right):
        return left is not None and right is not None and left != right

    def fits(i, j):
        v = t[i][j]
        return not (
            any(clash(at(v, z), at(i, t[j][z])) for z in r)
            or any(clash(at(t[x][i], j), at(x, v)) for x in r)
            or any(clash(v, at(x, t[y][j])) for x in r for y in r if t[x][y] == i)
            or any(clash(at(t[i][x], y), v) for x in r for y in r if t[x][y] == j)
        )

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in t]
            return
        i, j = cells[k]
        for v in r:
            t[i][j] = v
            if fits(i, j):
                yield from fill(k + 1)
        t[i][j] = None

    yield from fill(0)


def semigroup_classes(n):
    """One table per isomorphism class of semigroups of order n: 188 at n = 4 (OEIS A027851).

    A relabelling p of a table T is the table T' with T'[p(x)][p(y)] = p(T[x][y]).
    Each class is represented by its least table in row-major order.
    """
    perms = list(permutations(range(n)))

    def relabelled(table, p):
        inv = sorted(range(n), key=p.__getitem__)
        return [p[table[inv[i]][inv[j]]] for i in range(n) for j in range(n)]

    for table in all_associative_tables(n):
        flat = [x for row in table for x in row]
        if all(flat <= relabelled(table, p) for p in perms):
            yield table


def with_identity(rows):
    """S¹ of the table ``rows``: ``base.order``, ``base.table``, ``table`` and ``identity_index``.

    ``table`` holds the rows as tuples with a fresh identity appended as the
    last index, adjoined even if the table already has one.
    """
    n = len(rows)
    table = tuple((*row, i) for i, row in enumerate(rows)) + (tuple(range(n + 1)),)
    base = SimpleNamespace(order=n, table=rows)
    return SimpleNamespace(base=base, table=table, identity_index=n)


def mul_word(m, word):
    """Fold a word over the table of S¹ from ``with_identity``, starting from the identity."""
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


def fixed_size_search_one_var(m, g, n):
    """The smallest (a, b, c) with |a| = n that solves a = b*g*c, or None.

    Walks a in ``product`` order; (b, c) ranges over the splits of every
    distinct ordering of a, so the first a with a solution is the smallest
    and its smallest split completes the witness.
    """
    t = m.table
    for a in product(range(m.base.order), repeat=n):
        va = mul_word(m, a)
        found = [
            (word[:k], word[k:])
            for word in sorted(set(permutations(a)))
            for k in range(n + 1)
            if t[t[mul_word(m, word[:k])][g]][mul_word(m, word[k:])] == va
        ]
        if found:
            return (a, *min(found))
    return None


def witness_problem(names, rows, obj):
    """Why the CLI's JSON witness ``obj`` fails on the table ``rows`` over ``names``, or None.

    Shares no code with the package's validator. A one-var witness of g reads
    a = b*g*c and a two-var witness of (u, v) reads a*u*b = c*v*d. Both sides
    must carry one non-empty multiset of letters, and each side is multiplied
    out in the raw rows, with the element (or pair member) between its words.
    """
    if obj["kind"] == "one-var":
        sides = ((obj["a"], [], []), (obj["b"], [obj["element"]], obj["c"]))
    else:
        u, v = obj["pair"]
        sides = ((obj["a"], [u], obj["b"]), (obj["c"], [v], obj["d"]))
    index = {name: i for i, name in enumerate(names)}
    unknown = [x for side in sides for word in side for x in word if x not in index]
    if unknown:
        return f"unknown name {unknown[0]!r}"
    letters = [sorted(before + after) for before, _, after in sides]
    if letters[0] != letters[1]:
        return f"the sides carry the letters {letters[0]} and {letters[1]}"
    if not letters[0]:
        return "no letters"
    values = []
    for side in sides:
        word = [index[x] for part in side for x in part]
        value = word[0]
        for x in word[1:]:
            value = rows[value][x]
        values.append(value)
    if values[0] != values[1]:
        return f"the sides multiply to {names[values[0]]} and {names[values[1]]}"
    return None


def rees_matrix_table(group, rows, cols, sandwich):
    """Cayley table of the Rees matrix semigroup M[G; I, Λ; P], as index lists.

    ``group`` is the Cayley table of G, I = range(rows), Λ = range(cols) and
    ``sandwich[lam][i]`` is the entry p_{λi}. Element (i, x, λ) sits at index
    (i * |G| + x) * cols + λ, and (i, x, λ)(j, y, μ) = (i, x·p_{λj}·y, μ).
    """
    elements = list(product(range(rows), range(len(group)), range(cols)))
    index = {el: k for k, el in enumerate(elements)}
    return [
        [index[(i, group[group[x][sandwich[lam][j]]][y], mu)] for j, y, mu in elements]
        for i, x, lam in elements
    ]


def class_scan_candidates(m, pairs):
    """The pairs (u, v) over S¹ with [u·r] = [v·r] in S/κ for some r in S, in input order.

    The commutative-image test by its definition, scanning every r: both
    sides of a*u*b = c*v*d carry one factor multiset, with product r, so
    [r][u] = [r][v] in the commutative S/κ, and the other pairs have no
    witness. κ is ``all_pairs_kappa``; the adjoined identity maps each r to r.
    """
    cls = all_pairs_kappa(m.base.table)
    t = m.table
    scan = range(m.base.order)
    return [(u, v) for u, v in pairs if any(cls[t[u][r]] == cls[t[v][r]] for r in scan)]


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


def commutator_product(table, identity, inverse, pairs):
    """The left-to-right product of the commutators x y x^-1 y^-1 of ``pairs``."""
    acc = identity
    for x, y in pairs:
        acc = table[acc][table[table[table[x][y]][inverse[x]]][inverse[y]]]
    return acc


def bfs_commutator_decomposition(table, g):
    """Per-call breadth-first commutator decomposition in a group's rows: the pairs for g, or None.

    Recomputes the identity, the inverses, every commutator and the whole
    search on each call. Edges are tried in ascending commutator value, each
    value labelled with its first (x, y) preimage in lexicographic order; None
    means g lies outside the commutator subgroup.
    """
    t = table
    n = len(t)
    identity = next(e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n)))
    inv = [next(y for y in range(n) if t[x][y] == identity) for x in range(n)]
    preimage = {}
    for x in range(n):
        for y in range(n):
            c = t[t[t[x][y]][inv[x]]][inv[y]]
            if c not in preimage:
                preimage[c] = (x, y)
    edges = sorted(preimage)
    parent = {identity: None}
    queue = deque([identity])
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


# ------------------------------------------------------------------ the corpus


def _semigroup(prefix, table):
    # imported here so the oracles above load without semorient on the path,
    # as the benchmark harness loads them
    from semorient.core import Semigroup

    return Semigroup([f"{prefix}{i}" for i in range(len(table))], table)


@lru_cache(maxsize=None)
def labelled_semigroups(*orders):
    """Every semigroup on x0..x(n-1) for each n in ``orders``, in ``all_associative_tables`` order.

    1, 8 and 113 of them for n = 1, 2 and 3.
    """
    return tuple(_semigroup("x", table) for n in orders for table in all_associative_tables(n))


@lru_cache(maxsize=None)
def class_semigroups(n):
    """One semigroup per isomorphism class of order n, ``semigroup_classes`` named x0..."""
    return tuple(_semigroup("x", table) for table in semigroup_classes(n))


def composition_closure(generators, max_order=None):
    """The sorted maps composed of ``generators``, or None if they number over ``max_order``."""
    maps = list(dict.fromkeys(generators))
    seen = set(maps)
    for f in maps:
        for g in generators:
            h = compose(f, g)
            if h not in seen:
                if len(seen) == max_order:
                    return None
                seen.add(h)
                maps.append(h)
    return sorted(maps)


@lru_cache(maxsize=None)
def random_transformation_semigroups(count, seed=1, max_order=16):
    """The first ``count`` closures of 1-3 random maps on 3 or 4 points, named m0...

    The maps are drawn from ``random.Random(seed)``; a closure of more than
    ``max_order`` maps is skipped.
    """
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        points = rng.choice((3, 4))
        gens = rng.randint(1, 3)
        maps = composition_closure(
            {tuple(rng.randrange(points) for _ in range(points)) for _ in range(gens)}, max_order
        )
        if maps is not None:
            found.append(_semigroup("m", transformation_table(maps)))
    return tuple(found)


@lru_cache(maxsize=None)
def rees_tables():
    """M[G; I, Λ; P] for G in Z3 and S3 and |I|, |Λ| in 1-3, named r0..: 18 tables of order 3-54.

    p_{λi} = g**(λ·i) for g = element 1, so row and column 0 of P are 1_G.
    """
    from semorient.catalog import make_family

    found = []
    for spec in ("cyclic:3", "symmetric:3"):
        group = make_family(spec).table  # the identity is element 0
        for rows, cols in product((1, 2, 3), repeat=2):
            powers = [0]
            for _ in range((rows - 1) * (cols - 1)):
                powers.append(group[powers[-1]][1])
            sandwich = [[powers[lam * i] for i in range(rows)] for lam in range(cols)]
            found.append(_semigroup("r", rees_matrix_table(group, rows, cols, sandwich)))
    return tuple(found)


@lru_cache(maxsize=None)
def width_two_group():
    """Order-96 permutation group of 12 points with commutator width 2, named g0...

    Its [G, G] has order 32 but only 29 of its elements are commutators, so
    three decompositions need two pairs. Composition is (p*q)(x) = p(q(x)).
    """
    gens = ((3, 0, 10, 1, 8, 7, 2, 11, 9, 4, 6, 5), (11, 10, 6, 2, 0, 1, 3, 9, 7, 8, 5, 4))
    return _semigroup("g", transformation_table(composition_closure(gens)))
