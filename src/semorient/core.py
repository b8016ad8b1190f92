"""Finite semigroups as validated Cayley tables, plus congruence and quotient machinery.

Elements are integer indices into a name list; the binary operation is an
n-by-n table of indices. Every structure is immutable after construction and
every operation here is a pure function, so values can be shared freely
between threads.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain, compress
from operator import eq, itemgetter, ne
from typing import Iterable, NamedTuple, Optional, Sequence

Word = tuple[int, ...]

# characters that would collide with the table file format or CLI selectors
_RESERVED_NAME_CHARS = "#,:"

# largest order accepted from a table file or a family spec, checked before any table is built
MAX_ORDER = 1000

# default factor-count bounds of the one- and two-variable searches
ONE_VAR_DEFAULT_BOUND = 4
TWO_VAR_DEFAULT_BOUND = 3


class SemigroupError(Exception):
    """Base class for table, congruence, and group-structure failures."""


class TableFormatError(SemigroupError):
    """Malformed table file or structurally invalid table."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AssociativityError(SemigroupError):
    """A candidate table fails associativity; carries the first bad triple."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        i, j, k = triple
        super().__init__(
            f"not associative at triple ({i}, {j}, {k}): (e{i} e{j}) e{k} != e{i} (e{j} e{k})"
        )


class CompatibilityError(SemigroupError):
    """A partition is not compatible with multiplication.

    The quadruple (u, u', v, v') has u ~ u' and v ~ v' but u*v and u'*v' in
    different classes.
    """

    def __init__(self, quadruple: tuple[int, int, int, int]):
        self.quadruple = quadruple
        u, u2, v, v2 = quadruple
        super().__init__(
            f"partition is not a congruence: {u} ~ {u2} and {v} ~ {v2} "
            "but the products land in different classes"
        )


class FamilyError(SemigroupError):
    """Unknown family name or parameter outside the supported range."""


class NotAGroupError(SemigroupError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"group structure required: {reason}")


def _magma_generators(rows: Sequence[Sequence[int]]) -> list[int]:
    """Greedy generating set of the table, ascending.

    Each generator is the smallest index not yet covered; the covered set is
    then closed under multiplying by a generator on either side, Θ(n·|A|)
    products in all. Every covered element is a product of generators, so
    the set generates the table as a magma. On an associative table the
    covered set is the sub-semigroup the generators so far generate, which
    is also their sub-magma, so no generator is redundant. On another table
    it may be smaller, and the set larger, which is still a generating set.
    """
    n = len(rows)
    covered: set[int] = set()
    members: list[int] = []
    generators: list[int] = []
    generator_rows = []
    for start in range(n):
        if start in covered:
            continue
        row = rows[start]
        generators.append(start)
        generator_rows.append(row)
        # the new generator meets itself and, on both sides, the members so far,
        # which include the earlier generators
        batch = {row[start], *map(row.__getitem__, members)}
        batch.update(map(itemgetter(start), map(rows.__getitem__, members)))
        batch -= covered
        batch.discard(start)
        covered.add(start)
        members.append(start)
        while batch:
            covered |= batch
            members.extend(batch)
            new = set()
            for z in batch:
                new.update(map(rows[z].__getitem__, generators))  # z*g
                new.update(map(itemgetter(z), generator_rows))  # g*z
            batch = new - covered
    return generators


def check_associativity(table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """Return the lexicographically first triple (i, j, k) that fails to associate, or None.

    Light's associativity test (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, §1.2): the middles ``a`` with ``(x*a)*y == x*(a*y)`` for all
    ``x, y`` form a sub-magma, because for two such middles ``a, b``
    ``(x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y)``.
    So it is enough to check the middles of a generating set A.

    Each middle is checked per fiber of its row, at C speed. Two equal rows x
    give equal sides, so x ranges over the r distinct rows. And x*(a*y)
    depends on y only through a*y, so the equation holds for all y iff (i)
    row x*a is constant on every fiber {y : a*y = v} and (ii) it holds at one
    y per fiber. Whether a row passes (i) depends only on the fiber
    partition, so each distinct partition checks a row once. A middle is
    checked by whole rows instead, r row comparisons, when its row is
    injective (singleton fibers, which every row passes) or when that costs
    less than checking its partition's new rows; passing whole rows also
    shows (i) for the rows x*a. A group thus costs one row comparison per
    (generator, row) pair, Θ(n²·|A|) with |A| <= 1 + log2(n); a left-zero,
    right-zero or null table, whose rows are constant or all equal, Θ(n²).

    Only when a middle fails does a row-comparison scan over the pairs (i, j)
    in order find the first bad triple; it skips the middles that the
    generators checked before the failing one already cover.
    """
    n = len(table)
    if n == 1:
        # the one in-range table associates; itemgetter of one index would return a scalar
        return None
    rows = [tuple(row) for row in table]  # itemgetter returns tuples: compare like with like
    backwards = range(n - 1, -1, -1)
    # the first of each run of equal rows, ascending
    xrows = [rows[x] for x in sorted(dict(zip(reversed(rows), backwards)).values())]
    r = len(xrows)
    # fiber partition -> (rows checked for (i), the rows among them that pass)
    seen: dict[tuple[int, ...], tuple[set[int], set[int]]] = {}
    for a in _magma_generators(rows):
        row_a = rows[a]
        xa = list(map(itemgetter(a), xrows))
        rep = dict(zip(reversed(row_a), backwards))  # a*y -> the smallest y in its fiber
        k = len(rep)
        if k < n:
            partition = tuple(map(rep.__getitem__, row_a))  # y -> its fiber's smallest y
            checked, good = seen.setdefault(partition, (set(), set()))
            needed = set(xa)
            fresh = list(needed - checked)
            # (i) on the fresh rows and (ii) cost |fresh|*n + r*k; whole rows cost r*n
            if len(fresh) * n + r * k < r * n:
                fresh_rows = list(map(rows.__getitem__, fresh))
                same = map(eq, map(itemgetter(*partition), fresh_rows), fresh_rows)
                good.update(compress(fresh, same))
                checked.update(fresh)
                if not good.issuperset(needed):
                    break
                values, ys = zip(*rep.items())
                left = map(itemgetter(*ys), map(rows.__getitem__, xa))  # (x*a)*y, y per fiber
                if not all(map(eq, left, map(itemgetter(*values), xrows))):  # x*v
                    break
                continue
        # x-row -> (x*(a*y) for every y), against row x*a
        if not all(map(eq, map(itemgetter(*row_a), xrows), map(rows.__getitem__, xa))):
            break
        if k < n:
            # the whole rows agree, so every row x*a is constant on the fibers
            checked.update(needed)
            good.update(needed)
    else:
        return None
    # a is the smallest element the generators before it do not cover, so every
    # middle j < a is a product of them and lies in the sub-magma known to associate
    times = [itemgetter(*row) for row in rows[a:]]
    for i, row in enumerate(rows):
        for j, times_j in enumerate(times, a):
            left, right = rows[row[j]], times_j(row)
            if left != right:
                return (i, j, next(k for k in range(n) if left[k] != right[k]))
    raise AssertionError("unreachable: a failing middle has a failing triple")


def _name_problem(name: str) -> Optional[str]:
    if not name:
        return "empty element name"
    if any(ch.isspace() for ch in name):
        return f"element name {name!r} contains whitespace"
    for ch in _RESERVED_NAME_CHARS:
        if ch in name:
            return f"element name {name!r} contains reserved character {ch!r}"
    return None


def _read_only(self, name, *value):
    raise AttributeError(f"cannot assign or delete {type(self).__name__}.{name}")


class Semigroup:
    """A finite semigroup: distinct element names plus an associative Cayley table.

    ``table[i][j]`` is the index of ``names[i] * names[j]``. Associativity and
    entry ranges are verified on construction, so holding a Semigroup value is
    proof of validity. The value is immutable, and its hash is computed once
    there too: semigroups key caches.
    """

    __slots__ = ("names", "table", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, names: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        n = len(names)
        if n == 0:
            raise TableFormatError("a semigroup needs at least one element")
        seen = set()
        for name in names:
            problem = _name_problem(name)
            if problem:
                raise TableFormatError(problem)
            if name in seen:
                raise TableFormatError(f"duplicate element name {name!r}")
            seen.add(name)
        if len(table) != n:
            raise TableFormatError(f"table has {len(table)} rows for {n} elements")
        for i, row in enumerate(table):
            if len(row) != n:
                raise TableFormatError(f"table row {i} has {len(row)} entries, expected {n}")
            if min(row) < 0 or max(row) >= n:
                e = next(e for e in row if not 0 <= e < n)
                raise TableFormatError(f"table entry {e} out of range in row {i}")
        violation = check_associativity(table)
        if violation is not None:
            raise AssociativityError(violation)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_hash", hash((names, table)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Semigroup(names={self.names!r}, table={self.table!r})"

    def __reduce__(self):
        # string hashes differ between processes: unpickling must rehash
        return (Semigroup, (self.names, self.table))

    @property
    def order(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown element name {name!r}") from None

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


def make_semigroup(names: Iterable[str], table: Iterable[Iterable[int]]) -> Semigroup:
    """Normalize nested sequences into a validated Semigroup."""
    return Semigroup(tuple(names), tuple(tuple(row) for row in table))


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace-split with 1-based start columns."""
    tokens = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < len(line) and not line[j].isspace():
            j += 1
        tokens.append((line[i:j], i + 1))
        i = j
    return tokens


def parse_table(text: str) -> Semigroup:
    """Parse the table file format into a validated Semigroup.

    The format is line oriented: ``#`` comment lines and blank lines are
    ignored; an ``elements:`` line lists the n element names; a ``table:``
    line is followed by exactly n rows of n names, row i column j giving
    ``names[i] * names[j]``.
    """
    significant: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        significant.append((lineno, line))
    if not significant:
        raise TableFormatError("missing 'elements:' line")

    lineno, line = significant[0]
    tokens = _tokenize(line)
    if tokens[0][0] != "elements:":
        raise TableFormatError("expected 'elements:' line", line=lineno, column=tokens[0][1])
    if len(tokens) == 1:
        raise TableFormatError("no element names given", line=lineno)
    if len(tokens) - 1 > MAX_ORDER:
        raise TableFormatError(
            f"{len(tokens) - 1} element names exceed the maximum order {MAX_ORDER}", line=lineno
        )
    index: dict[str, int] = {}
    for tok, col in tokens[1:]:
        problem = _name_problem(tok)
        if problem:
            raise TableFormatError(problem, line=lineno, column=col)
        if tok in index:
            raise TableFormatError(f"duplicate element name {tok!r}", line=lineno, column=col)
        index[tok] = len(index)
    names = tuple(index)
    n = len(names)

    if len(significant) < 2:
        raise TableFormatError("missing 'table:' line")
    lineno, line = significant[1]
    tokens = _tokenize(line)
    if tokens[0][0] != "table:" or len(tokens) != 1:
        raise TableFormatError("expected 'table:' line", line=lineno, column=tokens[0][1])

    rows = significant[2:]
    if len(rows) < n:
        raise TableFormatError(f"expected {n} table rows, found {len(rows)}")
    if len(rows) > n:
        raise TableFormatError("unexpected content after table rows", line=rows[n][0])
    table = []
    for i, (lineno, line) in enumerate(rows):
        # str.split and _tokenize split at the same characters: those with isspace()
        tokens = line.split()
        if len(tokens) != n:
            raise TableFormatError(
                f"table row {i} has {len(tokens)} entries, expected {n}", line=lineno
            )
        try:
            table.append(tuple(map(index.__getitem__, tokens)))
        except KeyError:
            # only an error needs the columns
            tok, col = next((tok, col) for tok, col in _tokenize(line) if tok not in index)
            raise TableFormatError(
                f"unknown element name {tok!r}", line=lineno, column=col
            ) from None
    return Semigroup(names, tuple(table))


def serialize_table(s: Semigroup) -> str:
    """Emit the table file format: single spaces, trailing newline, no comments."""
    lines = ["elements: " + " ".join(s.names), "table:"]
    for row in s.table:
        lines.append(" ".join(s.names[e] for e in row))
    return "\n".join(lines) + "\n"


class Monoid1(NamedTuple):
    """A semigroup with a fresh two-sided identity adjoined as the last element.

    The identity realizes absent equation parts: an empty factor word
    evaluates to it. It is never a legal factor inside witness words, and it
    is adjoined even if the base already has an identity, so every semigroup
    gets the same uniform shape. Built only by ``adjoin_identity``.
    """

    base: Semigroup
    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity_index: int

    @property
    def order(self) -> int:
        return self.base.order + 1


@lru_cache(maxsize=None)
def adjoin_identity(s: Semigroup) -> Monoid1:
    """Adjoin a fresh two-sided identity, displayed as "1" (primed until unused)."""
    n = s.order
    marker = "1"
    while marker in s.names:
        marker += "'"
    names = s.names + (marker,)
    table = tuple(s.table[i] + (i,) for i in range(n)) + (tuple(range(n + 1)),)
    return Monoid1(s, names, table, n)


def eval_word(m: Monoid1, word: Iterable[int]) -> int:
    """Left-to-right product of a word of element indices; the empty word is the identity."""
    acc = m.identity_index
    table = m.table
    top = m.identity_index
    for x in word:
        if not 0 <= x <= top:
            raise ValueError(f"word entry {x} out of range")
        acc = table[acc][x]
    return acc


def idempotents(s: Semigroup) -> tuple[int, ...]:
    """Indices of all elements with e*e = e, ascending."""
    return tuple(e for e in range(s.order) if s.table[e][e] == e)


class Congruence:
    """A partition of element indices by class id, intended to respect multiplication.

    Class ids are canonical: class k first appears at the smallest element
    index not already covered, so equal partitions compare equal directly.
    Compatibility with the table is checked by consumers (see ``quotient``),
    not by this constructor. The value is immutable.
    """

    __slots__ = ("class_of", "num_classes")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, class_of: tuple[int, ...], num_classes: int):
        next_fresh = 0
        for x, c in enumerate(class_of):
            if not 0 <= c < num_classes:
                raise SemigroupError(f"class id {c} out of range at element {x}")
            if c > next_fresh:
                raise SemigroupError("class ids must appear in first-appearance order")
            if c == next_fresh:
                next_fresh += 1
        if next_fresh != num_classes:
            raise SemigroupError("not every class id is used")
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "num_classes", num_classes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.class_of == other.class_of and self.num_classes == other.num_classes

    def __hash__(self) -> int:
        return hash((self.class_of, self.num_classes))

    def __repr__(self) -> str:
        return f"Congruence(class_of={self.class_of!r}, num_classes={self.num_classes!r})"

    def __reduce__(self):
        return (Congruence, (self.class_of, self.num_classes))

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return out

    def relates(self, u: int, v: int) -> bool:
        return self.class_of[u] == self.class_of[v]


def compatibility_violation(
    s: Semigroup, c: Congruence
) -> Optional[tuple[int, int, int, int]]:
    """Find a quadruple (u, u', v, v') witnessing incompatibility, or None.

    One-sided translation invariance is checked; together with transitivity
    that is equivalent to full two-sided compatibility. Each member's row and
    column of classes is compared with its class's first member at C speed;
    only a mismatch is scanned for its first t.
    """
    table = s.table
    cls = c.class_of
    classes_of = cls.__getitem__
    columns = None
    for members in c.classes():
        if len(members) == 1:
            continue
        if columns is None:
            columns = tuple(zip(*table))
        u0 = members[0]
        row0 = tuple(map(classes_of, table[u0]))
        col0 = tuple(map(classes_of, columns[u0]))
        for u in members[1:]:
            if row0 == tuple(map(classes_of, table[u])) and col0 == tuple(
                map(classes_of, columns[u])
            ):
                continue
            for t in range(s.order):
                if cls[table[u0][t]] != cls[table[u][t]]:
                    return (u0, u, t, t)
                if cls[table[t][u0]] != cls[table[t][u]]:
                    return (t, t, u0, u)
    return None


@lru_cache(maxsize=None)
def _generators(s: Semigroup) -> list[int]:
    """``_magma_generators`` of the table: on an associative table they generate it as a semigroup."""
    return _magma_generators(s.table)


def generated_congruence(s: Semigroup, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence containing ``pairs``.

    Union-find seeded with the pairs and saturated to fixpoint under left and
    right translation: u ~ v forces t*u ~ t*v and u*t ~ v*t for every t. It is
    enough to translate by generators, because every t is a product of them.
    """
    n = s.order
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: deque[tuple[int, int]] = deque()

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        queue.append((a, b))

    pairs = list(pairs)
    ends = list(chain.from_iterable(pairs))
    if ends and (min(ends) < 0 or max(ends) >= n):
        a, b = next((a, b) for a, b in pairs if not (0 <= a < n and 0 <= b < n))
        raise ValueError(f"pair ({a}, {b}) out of range")
    for a, b in pairs:
        union(a, b)
    table = s.table
    generators = _generators(s)
    generator_rows = list(map(table.__getitem__, generators))
    while queue:
        u, v = queue.popleft()
        row_u, row_v = table[u], table[v]
        # (t*u, u*t) and (t*v, v*t) for every generator t; only distinct unequal pairs
        left = [*map(itemgetter(u), generator_rows), *map(row_u.__getitem__, generators)]
        right = [*map(itemgetter(v), generator_rows), *map(row_v.__getitem__, generators)]
        for a, b in set(compress(zip(left, right), map(ne, left, right))):
            union(a, b)

    ids: dict[int, int] = {}
    class_of = []
    for x in range(n):
        r = find(x)
        if r not in ids:
            ids[r] = len(ids)
        class_of.append(ids[r])
    result = Congruence(tuple(class_of), len(ids))
    bad = compatibility_violation(s, result)
    if bad is not None:
        raise CompatibilityError(bad)
    return result


@lru_cache(maxsize=None)
def commutative_congruence(s: Semigroup) -> Congruence:
    """κ, the least congruence with a commutative quotient: generated by every (xy, yx).

    It bounds every equation search from above. Let φ: S → S/κ. A witness
    a = b*g*c carries one factor multiset on both sides and S/κ is
    commutative, so φ(a) = φ(b)φ(c) and φ(a) = φ(g)φ(b)φ(c) = φ(g)φ(a): the
    class of g fixes the class w = φ(a). Likewise a*u*b = c*v*d forces
    [u]w = [v]w for w the class of the whole multiset. So an element whose
    class fixes no class, or a pair with [u]w != [v]w for every class w, has
    no witness at any bound. On a group S/κ = G/[G, G].

    The pairs (ab, ba) of generators a, b give the same congruence ρ: S/ρ is
    generated by the images of the generators, which commute, so S/ρ is
    commutative and κ ⊆ ρ; every seed pair lies in κ, so ρ ⊆ κ.
    """
    t = s.table
    generators = _generators(s)
    seeds = []
    for i, a in enumerate(generators):
        ab = list(map(t[a].__getitem__, generators[:i]))
        ba = list(map(itemgetter(a), map(t.__getitem__, generators[:i])))
        seeds += compress(zip(ab, ba), map(ne, ab, ba))  # a pair ab = ba adds nothing
    return generated_congruence(s, seeds)


def quotient(s: Semigroup, c: Congruence) -> Semigroup:
    """Quotient semigroup on congruence classes; compatibility is re-verified here.

    Class i is named after its smallest member, bracketed: ``[name]``.
    """
    if len(c.class_of) != s.order:
        raise ValueError("congruence does not match the semigroup's order")
    bad = compatibility_violation(s, c)
    if bad is not None:
        raise CompatibilityError(bad)
    reps = [members[0] for members in c.classes()]
    names = tuple(f"[{s.names[r]}]" for r in reps)
    cls = c.class_of
    table = tuple(tuple(cls[s.table[ri][rj]] for rj in reps) for ri in reps)
    return Semigroup(names, table)


def is_commutative(s: Semigroup) -> bool:
    t = s.table
    return t == tuple(zip(*t))


def is_cancellative(s: Semigroup) -> bool:
    """True iff every row and every column of the table is injective."""
    n = s.order
    t = s.table
    return all(len(set(line)) == n for line in chain(t, zip(*t)))
