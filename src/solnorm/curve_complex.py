"""Slopes on the torus and the intersection-number-2 curve complex.

A slope p/q (coprime, with 1/0 standing for infinity) names the isotopy
class of essential simple closed curves representing p*[lambda] + q*[mu] in
first homology.  Two slopes are joined by an edge when their geometric
intersection number |p*q' - p'*q| equals 2.  The resulting graph has three
connected components, indexed by the parities of (p, q); each component is
a tree, so geodesics are unique and breadth-first search (solnorm.graph) is
an exact oracle for the closed-form distance N(p*q' - q*p', p'*s - q'*r).

GL(2, Z) acts on slopes through the matrix layout

    [[ a  c ]
     [ b  d ]]        p/q  |->  (a*p + c*q) / (b*p + d*q),

which matches the wire format "a,c;b,d" used by the command line.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .arith import INF, ExtNat, bredon_wood, ext_gcd
from .errors import DomainError, ParseError, _over_digit_limit, int_text


class Validated:
    """The base of the validated record types, before their NamedTuple
    fields: _make builds the record through cls(*fields), so it refuses
    what the constructor refuses instead of taking any tuple.  NamedTuple's
    own _replace builds through self._make, so it refuses the same."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class _SlopeFields(NamedTuple):
    p: int
    q: int


class Slope(Validated, _SlopeFields):
    """A reduced fraction p/q in canonical form: q > 0, or (p, q) = (1, 0).

    A slope is the tuple (p, q): it equals its plain pair, and hashing,
    equality and the (p, q) lexicographic order are those of tuples."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "Slope":
        if math.gcd(p, q) != 1:
            raise _slope_error(p, q, "is not reduced")
        if q < 0 or (q == 0 and p != 1):
            raise _slope_error(p, q, "is not in canonical form")
        return tuple.__new__(cls, (p, q))

    @classmethod
    def of(cls, p: int, q: int) -> "Slope":
        """The slope +-(p, q) of a coprime pair, its sign set by _canonical;
        a pair that is not coprime raises DomainError naming it as given."""
        if p == 0 and q == 0:
            raise DomainError("0/0 is not a slope")
        if math.gcd(p, q) != 1:
            raise _slope_error(p, q, "is not reduced")
        return _canonical(p, q)

    def __str__(self) -> str:
        try:
            return f"{self.p}/{self.q}"
        except ValueError as err:  # int-to-str refuses numbers over the digit limit
            raise _over_digit_limit("slope entry", err) from None


def _slope_error(p: int, q: int, problem: str) -> DomainError:
    """The error "slope p/q <problem>" for the pair as given, or int_text's
    for an entry over Python's int-digit limit."""
    return DomainError(f"slope {int_text(p, 'slope entry')}/{int_text(q, 'slope entry')} {problem}")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(cell: str, message: str) -> int:
    """An ASCII integer entry, surrounding whitespace allowed.  Anything
    else int() would take (other scripts' digits, underscores) raises
    ParseError(message)."""
    cell = cell.strip()
    if not _INTEGER.fullmatch(cell):
        raise ParseError(message)
    try:
        return int(cell)
    except ValueError as err:  # only the int-digit limit is left to fail
        raise _entry_over_digit_limit(err) from None


def _entry_over_digit_limit(err: ValueError) -> ParseError:
    """The error for an input entry that int() refused: err is its ValueError."""
    return ParseError(f"integer entry over Python's int-digit limit: {err}")


def parse_slope(text: str) -> Slope:
    """Parse "p/q".  Malformed text raises ParseError; a non-coprime pair
    raises DomainError rather than being silently reduced."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParseError(f"expected 'p/q', got {text!r}")
    message = f"expected 'p/q' with integer entries, got {text!r}"
    return Slope.of(parse_int(parts[0], message), parse_int(parts[1], message))


class ParityClass(enum.Enum):
    """The parity (p mod 2, q mod 2) of a slope; labels the three trees.

    Each member holds j, k, its label "j/k" and its base vertex, the
    representative slope j/k used as the default orbit base point.  Members
    are singletons that compare by identity, so they hash by identity too.

    Code that runs per matrix or per slope iterates the tuple PARITY_CLASSES
    and looks a class up in PARITY_BY_BITS: iterating the enum or calling
    ParityClass((j, k)) goes through the enum machinery, several times the
    cost of a tuple or a dict."""

    ONE_ZERO = (1, 0)
    ZERO_ONE = (0, 1)
    ONE_ONE = (1, 1)

    def __init__(self, j: int, k: int) -> None:
        self.j = j
        self.k = k
        self.label = f"{j}/{k}"
        self.base_vertex = Slope(j, k)

    __hash__ = object.__hash__


# The members in definition order, and each member keyed by its (j, k).
PARITY_CLASSES = tuple(ParityClass)
PARITY_BY_BITS = {cls.value: cls for cls in PARITY_CLASSES}


def parity_of(s: Slope) -> ParityClass:
    return PARITY_BY_BITS[s.p % 2, s.q % 2]


class _GL2Fields(NamedTuple):
    a: int
    c: int
    b: int
    d: int


class GL2Matrix(Validated, _GL2Fields):
    """An integer matrix with rows (a, c) and (b, d) and determinant +-1.

    A matrix is the tuple (a, c, b, d), as a Slope is its pair: equality,
    hashing and order are those of tuples, and @ is the matrix product."""

    __slots__ = ()

    def __new__(cls, a: int, c: int, b: int, d: int) -> "GL2Matrix":
        self = tuple.__new__(cls, (a, c, b, d))
        det = a * d - b * c
        if det not in (1, -1):
            raise DomainError(f"matrix {self.to_text()} has determinant {int_text(det, 'determinant')}, need +-1")
        return self

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def inverse(self) -> "GL2Matrix":
        e = self.det()
        return GL2Matrix(e * self.d, -e * self.c, -e * self.b, e * self.a)

    def __matmul__(self, other: "GL2Matrix") -> "GL2Matrix":
        return GL2Matrix(
            self.a * other.a + self.c * other.b,
            self.a * other.c + self.c * other.d,
            self.b * other.a + self.d * other.b,
            self.b * other.c + self.d * other.d,
        )

    def power(self, n: int) -> "GL2Matrix":
        if n < 0:
            return self.inverse().power(-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def mod2(self) -> tuple[int, int, int, int]:
        return (self.a % 2, self.c % 2, self.b % 2, self.d % 2)

    def to_text(self) -> str:
        try:
            return f"{self.a},{self.c};{self.b},{self.d}"
        except ValueError as err:  # int-to-str refuses numbers over the digit limit
            raise _over_digit_limit("matrix entry", err) from None

    def __str__(self) -> str:
        return self.to_text()


IDENTITY = GL2Matrix(1, 0, 0, 1)


def parse_matrix(text: str) -> GL2Matrix:
    """Parse the row-major "a,c;b,d" format, row split on ";" and cell
    split on ",".  Malformed text raises the ParseError naming the first
    thing wrong with it; a determinant other than +-1 raises DomainError."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ParseError(f"expected 'a,c;b,d', got {text!r}")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ParseError(f"expected two entries per row, got {row!r}")
        for cell in cells:
            entries.append(parse_int(cell, f"expected integer entry, got {cell!r}"))
    return GL2Matrix(*entries)


def matrix_of_entries(a: str, c: str, b: str, d: str) -> GL2Matrix:
    """The matrix of four entry texts that cli's census line pattern has
    matched as _INTEGER: an entry over Python's int-digit limit raises
    ParseError, and a determinant other than +-1 DomainError."""
    try:
        entries = int(a), int(c), int(b), int(d)
    except ValueError as err:  # only the int-digit limit is left to fail
        raise _entry_over_digit_limit(err) from None
    # outside the try: the determinant's DomainError is a ValueError too
    return GL2Matrix(*entries)


def intersection_number(s1: Slope, s2: Slope) -> int:
    """Geometric intersection number |p1*q2 - p2*q1|."""
    return abs(s1.p * s2.q - s2.p * s1.q)


def mat_act(A: GL2Matrix, s: Slope) -> Slope:
    return Slope.of(A.a * s.p + A.c * s.q, A.b * s.p + A.d * s.q)


def distances_from(s1: Slope, targets: Iterable[Slope]) -> list[ExtNat]:
    """The distances from s1 to each slope of targets, in order; infinite
    to a slope of another parity class.

    The frame that moves s1 to 0/1, a unimodular matrix built from the
    ext_gcd cofactors x, y of s1, is computed once for all targets: the
    distance to t = p/q is N of the image of t, N(p1*q - q1*p, p*x + q*y)
    for s1 = p1/q1.
    """
    p1, q1 = s1
    _, x, y = ext_gcd(p1, q1)  # gcd 1 for a reduced slope
    return [bredon_wood(p1 * q - q1 * p, p * x + q * y) for p, q in targets]


def distance(s1: Slope, s2: Slope) -> ExtNat:
    """Distance in the curve complex; infinite between different parity
    classes.  It is distances_from with one target."""
    return distances_from(s1, (s2,))[0]


def _walk(
    ga: int, gc: int, gb: int, gd: int, tp: int, tq: int, steps: int
) -> list[tuple[int, int, int, int, int]]:
    """At most steps moves of the frame G = [[ga, gc], [gb, gd]] toward the
    target T = tp/tq, as the list of runs (c, d, dc, dd, r): the run's r
    vertices, the points G(0/1) after each of its moves, are
    (c + j*dc, d + j*dd) for j = 0 .. r-1, with either sign.  The walk
    stops early at T = 0/1, where it has arrived.

    The neighbors of 0/1 are the slopes 2s/n with n odd and s = +-1, and
    the branch at 2s/n holds the slopes strictly between 1/((n+1)/2) and
    1/((n-1)/2), times s.  So the move toward T = s*|P|/Q (Q > 0) goes to
    the one odd n within 1 of 2Q/|P|.  It applies H = [[1, 2s], [s(n-1)/2,
    n]], which has det 1 and sends 0/1 to 2s/n: G <- G*H, T <- H^-1(T).

    n = 1 exactly when Q < |P|, and then H = [[1, 2s], [0, 1]] leaves ga,
    gb and Q alone and takes 2Q off |P|.  So the moves with n = 1 come in
    runs of r = ceil((|P| - Q) / 2Q): one floor division, and H^r moves
    the frame in O(1) big-integer operations.  Any other move is a run of
    one, with increments 0.  A walk therefore costs O(#continued-fraction
    terms) big-integer operations, however long the path and however
    large the partial quotients."""
    runs = []
    while steps and tp:
        if tq < 0:
            tp, tq = -tp, -tq
        s, size = (1, tp) if tp > 0 else (-1, -tp)
        if tq < size:  # n = 1
            r = min(-((tq - size) // (2 * tq)), steps)
            dc, dd = 2 * s * ga, 2 * s * gb
            runs.append((gc + dc, gd + dd, dc, dd, r))
            gc, gd, tp = gc + r * dc, gd + r * dd, tp - 2 * s * r * tq
            steps -= r
        else:
            n = tq // (size // 2)
            n += 1 - n % 2  # the odd n within 1 of 2Q/|P|
            m = s * (n - 1) // 2
            ga, gc, gb, gd = ga + gc * m, 2 * s * ga + gc * n, gb + gd * m, 2 * s * gb + gd * n
            tp, tq = n * tp - 2 * s * tq, tq - m * tp
            runs.append((gc, gd, 0, 0, 1))
            steps -= 1
    return runs


def _progression(start: int, step: int, count: int) -> Iterable[int]:
    """start, start + step, ... (count terms), produced in C."""
    return range(start, start + step * count, step) if step else itertools.repeat(start, count)


def _run_vertices(c: int, d: int, dc: int, dd: int, r: int) -> Iterator[Slope]:
    """The vertices (c + j*dc, d + j*dd), j = 0 .. r-1, of a stored run as
    Slopes, built in C by tuple.__new__."""
    pairs = zip(_progression(c, dc, r), _progression(d, dd, r))
    return map(tuple.__new__, itertools.repeat(Slope), pairs)


def _canonical(p: int, q: int) -> Slope:
    """The slope +-(p, q) of a coprime pair, built without a gcd: the one
    sign rule, q > 0 or (p, q) = (1, 0)."""
    return tuple.__new__(Slope, (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q))


def _size(piece) -> int:
    """The vertices a stored piece holds: a list's length, a run's r."""
    return len(piece) if type(piece) is list else piece[4]


@functools.total_ordering
class TreePath(Sequence):
    """A checked tree path, held as the walk that proved it: its vertices
    are built only when they are read.

    pieces holds, in path order, lists of the vertices given one by one (the
    first vertex and each run of one) and runs (c, d, dc, dd, r) of r >= 1
    slopes (c + j*dc, d + j*dd), every one already in canonical form.  The
    pieces are the whole record: the vertex count is their sizes added up
    once, when the path is built.  So the record grows with the number of
    runs, not with their lengths.  len, edges (len - 1, which also holds
    past sys.maxsize vertices), indexing and text cost no vertex they do not
    return: text writes each piece as one block of "p/q" texts, formatted in
    C from the piece as stored.  Iterating builds the slopes of a run in C;
    it, text, reversed, index and a slice refuse to list more than
    MAX_PATH_EDGES edges.  The record is read-only, and it is a value: it
    equals, orders and hashes as the tuple of its vertices, which it builds
    only when it is compared or hashed, and it copies and pickles."""

    # (pieces, vertex count), set once
    __slots__ = ("_path",)

    def __init__(self, pieces: list) -> None:
        object.__setattr__(self, "_path", (pieces, sum(map(_size, pieces))))

    def _read_only(self, *args) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return TreePath, (self._path[0],)

    def __repr__(self) -> str:
        return f"<TreePath of {self.edges + 1} vertices from {self[0]} to {self[-1]}>"

    def __eq__(self, other):
        if isinstance(other, TreePath):  # no vertex is built for another length
            return self is other or (other.edges == self.edges and tuple(self) == tuple(other))
        if not isinstance(other, tuple):
            return NotImplemented
        return len(other) == self._path[1] and tuple(self) == other

    def __lt__(self, other):
        if isinstance(other, TreePath):
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) < other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __len__(self) -> int:
        return self._path[1]

    edges = property(lambda self: self._path[1] - 1)

    def __getitem__(self, index):
        pieces, count = self._path
        if isinstance(index, slice):
            indices = range(*index.indices(count))
            if indices[MAX_PATH_EDGES + 1:]:  # a range's truth holds past sys.maxsize, unlike len
                raise self._too_long()
            return tuple(self[i] for i in indices)
        i = index + count if index < 0 else index
        if not 0 <= i < count:
            raise IndexError("path index out of range")
        for piece in pieces:  # O(#runs), as the walk that built the path
            if i < _size(piece):
                break
            i -= _size(piece)
        if type(piece) is list:
            return piece[i]
        c, d, dc, dd, _ = piece
        return tuple.__new__(Slope, (c + i * dc, d + i * dd))

    def _too_long(self) -> DomainError:
        """The error for listing more than MAX_PATH_EDGES edges of this path."""
        return DomainError(f"geodesic from {self[0]} to {self[-1]} is longer than {MAX_PATH_EDGES} edges, "
                           "too long to list")

    def _spelled(self) -> list:
        """The pieces to spell every vertex from; DomainError past MAX_PATH_EDGES."""
        pieces, count = self._path
        if count > MAX_PATH_EDGES + 1:
            raise self._too_long()
        return pieces

    def __iter__(self) -> Iterator[Slope]:
        return itertools.chain.from_iterable(
            piece if type(piece) is list else _run_vertices(*piece) for piece in self._spelled()
        )

    # the Sequence mixins would read one vertex at a time past the limit
    def __reversed__(self) -> Iterator[Slope]:
        return reversed(tuple(self))

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        vertices = tuple(self)
        return vertices.index(value, start, len(vertices) if stop is None else stop)

    def text(self, separator: str) -> str:
        """The vertices as "p/q" texts joined by separator, formatted in C:
        each stored piece with one % over a repeated template.  A list is
        written as ("%d/%d" + separator) * n over its flattened pairs, a run
        straight from its progressions, and a run whose step has a zero
        entry puts that constant entry into the template once, so only the
        other entry is formatted per vertex.  An entry over Python's
        int-digit limit raises DomainError, as str(slope) does."""
        pieces = self._spelled()
        sep = separator.replace("%", "%%")
        pair, chunks = "%d/%d" + sep, []
        try:
            for piece in pieces:
                if type(piece) is list:
                    chunks.append((pair * len(piece)) % tuple(itertools.chain.from_iterable(piece)))
                    continue
                c, d, dc, dd, r = piece
                if dc == 0:
                    chunks.append((f"{c}/%d{sep}" * r) % tuple(_progression(d, dd, r)))
                elif dd == 0:
                    chunks.append((f"%d/{d}{sep}" * r) % tuple(_progression(c, dc, r)))
                else:
                    flat = [0] * (2 * r)
                    flat[0::2], flat[1::2] = _progression(c, dc, r), _progression(d, dd, r)
                    chunks.append((pair * r) % tuple(flat))
        except ValueError as err:  # int-to-str refuses numbers over the digit limit
            raise _over_digit_limit("slope entry", err) from None
        text = "".join(chunks)
        return text[: len(text) - len(separator)]


def _left_the_path(s1: Slope, s2: Slope) -> AssertionError:
    """The error for a walk from s1 to s2 that fails one of geodesic's checks."""
    return AssertionError(f"geodesic walk from {s1} to {s2} left the tree path")


# The most edges a TreePath spells out: listing or printing a longer path
# (200 MB of slopes at the limit) would exhaust memory, so it is a domain
# error.  The walk needs no limit: it stores O(#runs), however long.
MAX_PATH_EDGES = 10**6


def geodesic_path(s1: Slope, s2: Slope, middle: int | None = None) -> TreePath:
    """The unique tree path from s1 to s2, every edge checked, as a
    TreePath.  With middle = m it is only the middle m edges: vertices
    k .. d - k of the path, where d = distance(s1, s2) and k = (d - m)/2.
    A middle below 0, above d or of the parity of d + 1 raises
    AssertionError.

    One frame and one N give d: the frame G = [[y, p], [-x, q]] from
    ext_gcd (the one distance uses) has det 1 and sends 0/1 to s1 = p/q,
    and d = N(T) for the target T = G^-1(s2), finite only when the
    numerator of T is even.  A stretch of any length is walked and
    checked; the TreePath refuses to spell out one too long to list.

    _walk moves the frame d - k times, in runs.  The runs before vertex k
    are skipped whole, without building a vertex.  The run that holds
    vertex k is cut there: vertex k, built by Slope.of, must have the
    parity of s1, and the rest of the run follows it as a run of its own.
    Each run (c, d, dc, dd, r), with vertices v_j = v_0 + j*s, v_0 =
    (c, d), s = (dc, dd), either sign, is then checked as a whole:

    - A run of more than the edges the stretch has left, or of fewer than
      one vertex, is refused before it is checked.
    - v_0 gets the per-edge check, with the product of two big entries:
      intersection number 2 with the previous vertex, the parity of s1,
      and not the vertex two before it.  The first makes its gcd divide
      2, the second makes one entry odd, so the pair is reduced.
    - A run of r >= 2 needs even dc and dd, |c*dd - dc*d| = 2, and
      v_1 != +-(the vertex before v_0).  Then every vertex is a slope of
      the class of s1 one edge from the next, and the run never turns
      back: det(v_j, v_{j+1}) = det(v_0, s) exactly for every j, and
      canonicalizing a sign negates a whole vertex, which leaves |det|
      alone; an even step keeps every vertex in the parity class of v_0;
      v_{j+2} = +-v_j would need s = 0 (then det = 0) or v_{j+1} = 0,
      which is no slope, so a run can turn back only where it starts,
      and the vertex after it is the next run's v_0, checked against
      the run's last two.  So a run costs one product, not one per edge.

    A checked run of r >= 2 is stored without building a vertex, split
    where q_j = d + j*dd changes sign: the vertices with q_j < 0, negated,
    then 1/0 if some q_j = 0, then the vertices with q_j > 0, each stretch
    a run of slopes already in canonical form.  A vertex with q_j = 0 is
    (+-1, 0): its p divides det(v_0, s) = +-2 and is odd, as the class of
    s1 has an odd entry.  With dd = 0 the determinant is -dc*d, so every
    q_j = d is nonzero.  This split is the one place the sign of a run's
    vertices is decided; the TreePath reads its runs as they are stored.

    Where runs meet, and on runs of one, every edge keeps the per-edge
    check.  A stretch that passes every check never turns back, and a
    path in a tree that never turns back is the geodesic between its
    ends.  At the end the TreePath's own count, the sizes of the pieces
    it holds, must be m + 1, and the whole path (k = 0) must end at s2,
    which checks N(T) too.  So what is returned is a tree geodesic of m
    edges in the class of s1; that it is the middle of the path to s2
    rests on N(T), and a caller that relies on it checks the ends
    itself."""
    _, x, y = ext_gcd(s1.p, s1.q)  # gcd 1 for a reduced slope
    tp, tq = s1.q * s2.p - s1.p * s2.q, x * s2.p + y * s2.q
    dist = bredon_wood(tp, tq)  # distance(s1, s2): N ignores the sign of tp
    if dist == INF:
        raise DomainError(f"infinite distance: {s1} and {s2} lie in different parity classes")
    edges = dist if middle is None else middle
    if edges < 0 or edges > dist or (dist - edges) % 2:
        raise AssertionError(f"geodesic from {s1} to {s2} has {dist} edges: no middle stretch of {edges}")
    skip = (dist - edges) // 2
    parity = (s1.p & 1, s1.q & 1)
    runs = iter(_walk(y, s1.p, -x, s1.q, tp, tq, dist - skip))
    first = s1
    if skip:
        left = skip  # vertex k is the run's vertex left - 1
        for c, d, dc, dd, r in runs:
            if left <= r:
                break
            left -= r
        else:
            raise _left_the_path(s1, s2)
        first = Slope.of(c + (left - 1) * dc, d + (left - 1) * dd)
        if (first.p & 1, first.q & 1) != parity:
            raise _left_the_path(s1, s2)
        if left < r:
            runs = itertools.chain(((c + left * dc, d + left * dd, dc, dd, r - left),), runs)
    # the vertices one by one since the last run, and the last two vertices
    vertices, last, back = [first], first, None
    pieces, count = [vertices], 1
    for c, d, dc, dd, r in runs:
        if not 0 < r <= edges + 1 - count:
            raise _left_the_path(s1, s2)
        pp, pq = last
        vertex = _canonical(c, d)
        cp, cq = vertex
        if abs(pp * cq - cp * pq) != 2 or (cp & 1, cq & 1) != parity or vertex == back:
            raise _left_the_path(s1, s2)
        if r == 1:
            back, last = last, vertex
            vertices.append(last)
            count += 1
            continue
        if dc & 1 or dd & 1 or abs(c * dd - dc * d) != 2 or (c + dc, d + dd) in ((pp, pq), (-pp, -pq)):
            raise _left_the_path(s1, s2)
        back = _canonical(c + (r - 2) * dc, d + (r - 2) * dd)
        last = _canonical(c + (r - 1) * dc, d + (r - 1) * dd)
        # the split: the run negated where need be so that q_j = d + j*dd
        # grows or is d > 0; then q_j < 0 exactly for j < z
        if dd < 0 or (dd == 0 and d < 0):
            c, d, dc, dd = -c, -d, -dc, -dd
        z = min(-(d // dd), r) if d < 0 else 0
        if z:
            pieces.append((-c, -d, -dc, -dd, z))
        if z < r and d + z * dd == 0:
            pieces.append([Slope(1, 0)])
            z += 1
        if z < r:
            pieces.append((c + z * dc, d + z * dd, dc, dd, r - z))
        count += r
        vertices = []
        pieces.append(vertices)
    path = TreePath(pieces)
    if path.edges != edges or (not skip and last != s2):
        raise _left_the_path(s1, s2)
    return path


def geodesic(s1: Slope, s2: Slope, middle: int | None = None) -> list[Slope]:
    """The vertices of geodesic_path(s1, s2, middle), as a list."""
    return list(geodesic_path(s1, s2, middle))
