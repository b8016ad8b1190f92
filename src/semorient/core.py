"""Finite semigroups as validated Cayley tables, plus congruence and quotient machinery.

Elements are integer indices into a name list; the binary operation is an
n-by-n table of indices. Every structure is immutable after construction and
every operation here is a pure function, so values can be shared freely
between threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from operator import eq, itemgetter, ne
from typing import Hashable, Iterable, Iterator, Optional, Sequence

Word = tuple[int, ...]

# characters that would collide with the table file format or CLI selectors
_RESERVED_NAME_CHARS = "#,:"

# largest order accepted from a table file or a family spec, checked before any table is built
MAX_ORDER = 1000

# largest table file accepted, in bytes, checked before the file is decoded: above the
# 29 670 737 bytes of the longest catalog table within MAX_ORDER, leftzero:83 times
# alternating:4 (order 996) with each name padded by seven products with leftzero:1
MAX_TABLE_BYTES = 32 * 2**20

# largest search bound the CLI accepts, checked before any search: a search of
# size n on k elements keeps the maps of all C(n + k - 2, k - 1) multisets of
# n - 1 factors, each with at most (k + 1)**2 split keys
MAX_BOUND = 8

# default factor-count bounds of the one- and two-variable searches
ONE_VAR_DEFAULT_BOUND = 4
TWO_VAR_DEFAULT_BOUND = 3

# entries each module-level lru_cache keeps, keyed by table or spec: above
# the distinct keys one CLI call uses (at most 3 on any benchmark job), so a
# library loop over many tables keeps the most recent ones, not every one seen
CACHE_SIZE = 32


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
    """A candidate table fails associativity; carries the first bad triple and names its elements."""

    def __init__(self, triple: tuple[int, int, int], names: Sequence[str]):
        self.triple = triple
        x, y, z = (names[i] for i in triple)
        super().__init__(f"not associative at triple {triple}: ({x} {y}) {z} != {x} ({y} {z})")


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
    generators: list[int] = []
    generator_rows = []
    for start in range(n):
        if start in covered:
            continue
        row = rows[start]
        generators.append(start)
        generator_rows.append(row)
        # the new generator meets itself and, on both sides, every covered element
        batch = {row[start], *map(row.__getitem__, covered)}
        batch.update(map(itemgetter(start), map(rows.__getitem__, covered)))
        batch -= covered
        batch.discard(start)
        covered.add(start)
        while batch:
            covered |= batch
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
    depends on y only through a*y, so the equation holds for all y iff (i) row
    x*a is constant on every fiber {y : a*y = v} and (ii) it holds at one y
    per fiber. Passing (i) depends only on the fiber partition, and a failing
    row ends the check, so each partition keeps one set: the rows that passed.
    Whole rows, r row comparisons, check a middle whose row is injective or
    whose partition's new rows cost at least as much by (i) and (ii); passing
    them shows (i) too. This fork keeps chain semilattices, a new partition at
    nearly every middle, at whole-row cost: fibers alone took max(x, y) on 300
    elements from 0.37 to 0.56 s, and min(x, y) on 600 from 2.8 to 4.6 s
    (medians of five, 2-vCPU VM, Python 3.11). A group costs Θ(n²·|A|),
    |A| <= 1 + log2(n); a left-zero, right-zero or null table, with constant
    or equal rows, Θ(n²).

    Only when a middle fails does a row-comparison scan over the pairs (i, j)
    in order find the first bad triple; it skips the middles that the
    generators checked before the failing one already cover.
    """
    n = len(table)
    if n == 1:
        # the one in-range table associates; itemgetter of one index would return a scalar
        return None
    rows = [tuple(row) for row in table]  # itemgetter returns tuples: compare like with like
    xrows = list(dict.fromkeys(rows))  # the distinct rows, in order of first appearance
    r = len(xrows)
    # fiber partition -> the rows x*a known to pass (i) on it
    seen: dict[tuple[int, ...], set[int]] = {}
    for a in _magma_generators(rows):
        row_a = rows[a]
        xa = list(map(itemgetter(a), xrows))
        rep = dict(zip(reversed(row_a), range(n - 1, -1, -1)))  # a*y -> smallest y in its fiber
        k = len(rep)
        if k < n:
            partition = tuple(map(rep.__getitem__, row_a))  # y -> its fiber's smallest y
            good = seen.setdefault(partition, set())
            fresh = set(xa) - good
            # (i) on the fresh rows and (ii) cost |fresh|*n + r*k; whole rows cost r*n
            if len(fresh) * n + r * k < r * n:
                fresh_rows = list(map(rows.__getitem__, fresh))
                if not all(map(eq, map(itemgetter(*partition), fresh_rows), fresh_rows)):
                    break
                good |= fresh
                values, ys = zip(*rep.items())
                left = map(itemgetter(*ys), map(rows.__getitem__, xa))  # (x*a)*y, y per fiber
                if not all(map(eq, left, map(itemgetter(*values), xrows))):  # x*v
                    break
                continue
            good.update(xa)  # read again only if the whole rows agree, which shows (i) for them
        # x-row -> (x*(a*y) for every y), against row x*a
        if not all(map(eq, map(itemgetter(*row_a), xrows), map(rows.__getitem__, xa))):
            break
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


def _name_fault(names: Sequence[str]) -> Optional[tuple[int, str]]:
    """The index of the first name that is empty, holds whitespace or a reserved
    character, or repeats an earlier name, with the reason; None if there is none.
    """
    seen = set()
    for i, name in enumerate(names):
        if not name:
            return i, "empty element name"
        if any(map(str.isspace, name)):
            return i, f"element name {name!r} contains whitespace"
        for ch in _RESERVED_NAME_CHARS:
            if ch in name:
                return i, f"element name {name!r} contains reserved character {ch!r}"
        if name in seen:
            return i, f"duplicate element name {name!r}"
        seen.add(name)
    return None


def _read_only(self, name, *value):
    raise AttributeError(f"cannot assign or delete {type(self).__name__}.{name}")


def _check_elements(order: int, *indices: int) -> None:
    """Raise ValueError for the first index that is not in range(order).

    A negative index would otherwise read as an element counted from the end.
    """
    for x in indices:
        if not 0 <= x < order:
            raise ValueError(f"element {x} out of range")


class Semigroup:
    """A finite semigroup: distinct element names plus an associative Cayley table.

    ``table[i][j]`` is the index of ``names[i] * names[j]``. Associativity and
    entry ranges are verified on construction, so holding a Semigroup value is
    proof of validity. The value is immutable, and its hash is computed once
    there too: semigroups key caches. The names and rows are stored as
    tuples, so a value built from lists is hashable and owns its table.
    """

    __slots__ = ("names", "table", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, names: Iterable[str], table: Iterable[Iterable[int]]):
        names = tuple(names)
        table = tuple(map(tuple, table))
        n = len(names)
        if n == 0:
            raise TableFormatError("a semigroup needs at least one element")
        if fault := _name_fault(names):
            raise TableFormatError(fault[1])
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
            raise AssociativityError(violation, names)
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


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace-split with 1-based start columns."""
    tokens = []
    end = 0
    for tok in line.split():
        # only whitespace lies between end and the token, so this finds its start
        start = line.index(tok, end)
        tokens.append((tok, start + 1))
        end = start + len(tok)
    return tokens


def parse_table(text: str) -> Semigroup:
    r"""Parse the table file format into a validated Semigroup.

    The format is line oriented: ``#`` comment lines and blank lines are
    ignored; an ``elements:`` line lists the n element names; a ``table:``
    line is followed by exactly n rows of n names, row i column j giving
    ``names[i] * names[j]``. Lines end at ``\n``, ``\r\n`` or a lone ``\r``,
    the line ends ``open()`` translates; any other line-break character of
    ``str.splitlines`` (``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``,
    ``\u2028``, ``\u2029``) is whitespace inside its line. One leading U+FEFF,
    a byte-order mark, is dropped; any other is part of its line.
    """
    significant: list[tuple[int, str]] = []
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        significant.append((lineno, line))
    if not significant:
        raise TableFormatError("missing 'elements:' line")

    # only an error needs a column: _tokenize finds the token it names
    lineno, line = significant[0]
    tokens = line.split()
    if tokens[0] != "elements:":
        column = _tokenize(line)[0][1]
        raise TableFormatError("expected 'elements:' line", line=lineno, column=column)
    names = tokens[1:]
    n = len(names)
    if n == 0:
        raise TableFormatError("no element names given", line=lineno)
    if n > MAX_ORDER:
        raise TableFormatError(
            f"{n} element names exceed the maximum order {MAX_ORDER}", line=lineno
        )
    if fault := _name_fault(names):
        raise TableFormatError(fault[1], line=lineno, column=_tokenize(line)[fault[0] + 1][1])
    index = dict(zip(names, range(n)))

    if len(significant) < 2:
        raise TableFormatError("missing 'table:' line")
    lineno, line = significant[1]
    if line.split() != ["table:"]:
        column = _tokenize(line)[0][1]
        raise TableFormatError("expected 'table:' line", line=lineno, column=column)

    rows = significant[2:]
    if len(rows) < n:
        raise TableFormatError(f"expected {n} table rows, found {len(rows)}")
    if len(rows) > n:
        raise TableFormatError("unexpected content after table rows", line=rows[n][0])
    table = []
    for i, (lineno, line) in enumerate(rows):
        tokens = line.split()
        if len(tokens) != n:
            raise TableFormatError(
                f"table row {i} has {len(tokens)} entries, expected {n}", line=lineno
            )
        try:
            table.append(tuple(map(index.__getitem__, tokens)))
        except KeyError:
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


@lru_cache(maxsize=CACHE_SIZE)
def adjoin_identity(s: Semigroup) -> tuple[tuple[int, ...], ...]:
    """The rows of S¹: the table with a fresh two-sided identity adjoined as index ``s.order``.

    The identity realizes absent equation parts: an empty factor word
    evaluates to it. It is never a legal factor inside witness words, and it
    is adjoined even if the base already has an identity, so every semigroup
    gets the same uniform shape. The search and the validators read these
    rows alongside ``s.order``.
    """
    n = s.order
    return tuple(row + (i,) for i, row in enumerate(s.table)) + (tuple(range(n + 1)),)


def eval_word(s: Semigroup, word: Iterable[int]) -> int:
    """Left-to-right product in S¹ of a word of indices ``0..s.order``; the empty word is the 1.

    Raises ValueError for a letter outside S¹.
    """
    table = adjoin_identity(s)
    acc = top = len(table) - 1  # the adjoined 1, index s.order
    for x in word:
        if not 0 <= x <= top:
            raise ValueError(f"word entry {x} out of range")
        acc = table[acc][x]
    return acc


def idempotents(s: Semigroup) -> tuple[int, ...]:
    """Indices of all elements with e*e = e, ascending."""
    return tuple(e for e in range(s.order) if s.table[e][e] == e)


class Congruence:
    """The partition of element indices by label, intended to respect multiplication.

    ``class_of`` gives one hashable label per element; elements share a class
    iff their labels are equal. The constructor numbers the classes in order
    of first appearance, so class k first appears at the smallest element
    index not already covered, and equal partitions compare equal however
    they were labelled. Compatibility with the table is checked by consumers
    (see ``compatibility_violation``), not by this constructor. The value is
    immutable.
    """

    __slots__ = ("class_of", "num_classes")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, class_of: Iterable[Hashable]):
        ids: dict[Hashable, int] = {}
        object.__setattr__(self, "class_of", tuple(ids.setdefault(c, len(ids)) for c in class_of))
        object.__setattr__(self, "num_classes", len(ids))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.class_of == other.class_of

    def __hash__(self) -> int:
        return hash(self.class_of)

    def __repr__(self) -> str:
        return f"Congruence(class_of={self.class_of!r})"

    def __reduce__(self):
        return (Congruence, (self.class_of,))

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return out

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The ordered pairs (u, v) with u and v in one class, ascending."""
        classes = self.classes()
        return ((u, v) for u, c in enumerate(self.class_of) for v in classes[c])


def compatibility_violation(
    s: Semigroup, c: Congruence
) -> Optional[tuple[int, int, int, int]]:
    """Find a quadruple (u, u', v, v') witnessing incompatibility, or None.

    One-sided translation invariance is checked; together with transitivity
    that is equivalent to full two-sided compatibility. Each member's row and
    column of classes is compared with its class's first member at C speed;
    only a mismatch is scanned for its first t. Raises ValueError when the
    partition is not of the semigroup's order.

    A single Python scan per member, stopping at the first t whose row or
    column class differs, needs no transpose and no class tuples and gives
    equal results, but it is slower where it counts. It wins when a member
    fails early (8 random classes on dihedral:500: 11.7 to 0.1 ms) and on
    bands (ker φ of null:1000: 168 to 113 ms). On a congruence of a
    relabelled group table, what ``--table`` users pass, every member passes
    and is scanned in full: ker φ of a relabelled dihedral:500 went from 168
    to 199 ms, slower on all 11 pairs (medians of 11 alternating pairs,
    2-vCPU VM, Python 3.11).
    """
    if len(c.class_of) != s.order:
        raise ValueError("congruence does not match the semigroup's order")
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


@lru_cache(maxsize=CACHE_SIZE)
def _generators(s: Semigroup) -> list[int]:
    """``_magma_generators`` of the table: on an associative table they generate it as a semigroup."""
    return _magma_generators(s.table)


def generated_congruence(s: Semigroup, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence containing ``pairs``.

    Union-find seeded with the pairs and saturated to fixpoint under left and
    right translation: u ~ v forces t*u ~ t*v and u*t ~ v*t for every t. It is
    enough to translate by generators, because every t is a product of them.
    So the partition is a congruence by construction, with no scan after it:
    each union also unions its generator translates.
    """
    n = s.order
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
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
        u, v = queue.pop()
        row_u, row_v = table[u], table[v]
        # (t*u, u*t) and (t*v, v*t) for every generator t; only distinct unequal pairs
        left = [*map(itemgetter(u), generator_rows), *map(row_u.__getitem__, generators)]
        right = [*map(itemgetter(v), generator_rows), *map(row_v.__getitem__, generators)]
        for a, b in set(compress(zip(left, right), map(ne, left, right))):
            union(a, b)
    return Congruence(map(find, range(n)))


@lru_cache(maxsize=CACHE_SIZE)
def commutative_congruence(s: Semigroup) -> Congruence:
    """κ, the least congruence with a commutative quotient: generated by every (xy, yx).

    On a group S/κ = G/[G, G]; ``_abelian_keys`` reads the search filter off
    it. The pairs (ab, ba) of generators a, b give the same congruence ρ:
    S/ρ is generated by the images of the generators, which commute, so S/ρ
    is commutative and κ ⊆ ρ; every seed pair lies in κ, so ρ ⊆ κ.
    """
    t = s.table
    generators = _generators(s)
    seeds = []
    for i, a in enumerate(generators):
        ab = list(map(t[a].__getitem__, generators[:i]))
        ba = list(map(itemgetter(a), map(t.__getitem__, generators[:i])))
        seeds += compress(zip(ab, ba), map(ne, ab, ba))  # a pair ab = ba adds nothing
    return generated_congruence(s, seeds)


@lru_cache(maxsize=CACHE_SIZE)
def _abelian_keys(s: Semigroup) -> tuple[int, Congruence]:
    """ε and ker φ, where φ(x) = [x·ε]: S/ker φ is the largest abelian-group image of S.

    ε is the idempotent power of z, the product of all elements, and [y] is
    the κ-class of y. z lies in the minimal ideal K of S, because one of its
    factors does, and so does its power ε. The minimal ideal of the finite
    commutative S/κ is a group (Clifford & Preston I); it is the image of K,
    so its identity is [ε]. Hence φ is a homomorphism onto the abelian group
    (S/κ)[ε]. Every homomorphism ψ onto an abelian group factors through φ:
    ψ kills κ, and ψ(ε) is an idempotent of a group, so ψ(x) = ψ(xε). So
    S/ker φ is the largest abelian-group image of S.

    σ_orient = ker φ, and witnesses of size 1 generate it:

    - ⊆: a witness (a, b, c, d) of (u, v) carries one factor multiset on both
      sides, so ψ(ab) = ψ(cd) in any abelian-group image ψ, and ψ(u) = ψ(v).
      So the congruence ker φ holds every witnessed pair and what they generate.
    - ⊇: (xy, yx) has the witness ((y), (), (), (y)), since y·xy = yx·y, so
      κ ⊆ σ_orient; and (u, uε) has the witness ((), (ε), (), (ε)). If
      [uε] = [vε], then u σ uε κ vε σ v.

    The adjoined 1 of S¹ maps to [ε], the identity of the image, so the
    same argument shows that a pair over S¹ with two keys, or an element g
    keyed apart from 1, has no witness at any bound. On a group ε = 1 and
    the keys are the cosets of [G, G]. The key of x is ``class_of[x]`` of the
    ker φ returned: its κ-class [xε], numbered by first appearance.
    """
    t = s.table
    z = 0
    for x in range(1, s.order):
        z = t[z][x]
    eps = z
    while t[eps][eps] != eps:  # the powers of z reach their idempotent by z**n
        eps = t[eps][z]
    cls = commutative_congruence(s).class_of
    return eps, Congruence(cls[row[eps]] for row in t)


def quotient(s: Semigroup, c: Congruence) -> Semigroup:
    """Quotient semigroup on congruence classes; compatibility is re-verified here.

    Raises ValueError for a partition of another order (through
    ``compatibility_violation``) and CompatibilityError for one that is not a
    congruence. Class i is named after its smallest member, bracketed: ``[name]``.
    """
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
