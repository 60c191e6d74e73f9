"""Immutable simple graphs with bit-set adjacency: construction, file formats,
random generation, and exhaustive enumeration of all labeled graphs.

Vertices are dense 0-based integers in memory. On disk (DIMACS and edge-list
files) vertex ids are 1-based.
"""

from __future__ import annotations

import random
import re
import warnings
from typing import Iterable, Iterator

from .errors import GenerationError, ParseError, SizeLimitError

ENUMERATION_LIMIT = 8


class GraphInputWarning(UserWarning):
    """Non-fatal irregularity in graph input (duplicate edges, header mismatch)."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one integer bit-set per vertex. Instances are
    treated as immutable values everywhere: they hash and compare by content
    and are safe to share between concurrent readers.
    """

    __slots__ = ("n", "adj", "degrees", "edge_count")

    def __init__(self, adj: Iterable[int]):
        self.adj = tuple(adj)
        self.n = len(self.adj)
        self.degrees = tuple(row.bit_count() for row in self.adj)
        self.edge_count = sum(self.degrees) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.n else 0

    @property
    def min_degree(self) -> int:
        return min(self.degrees) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> int:
        """Bit-set of the neighbors of v."""
        return self.adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered pairs u < v, ascending."""
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                bit = row & -row
                yield u, bit.bit_length() - 1
                row ^= bit

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(full & ~row & ~(1 << v) for v, row in enumerate(self.adj))

    def validate(self) -> None:
        """Assert the structural invariants; used by tests and parsers."""
        n = self.n
        for v, row in enumerate(self.adj):
            if row >> n:
                raise AssertionError(f"row {v} has bits above n")
            if row >> v & 1:
                raise AssertionError(f"self-loop at {v}")
            if self.degrees[v] != row.bit_count():
                raise AssertionError(f"degree cache wrong at {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                    raise AssertionError(f"asymmetric pair ({u},{v})")
        if sum(self.degrees) != 2 * self.edge_count:
            raise AssertionError("handshake violation")


class VertexSet:
    """Subset of one graph's vertices, stored as a bit-set.

    A VertexSet remembers its owning graph; predicate evaluators reject sets
    whose owner is a different graph object.
    """

    __slots__ = ("graph", "mask")

    def __init__(self, graph: Graph, members: Iterable[int] | int = 0):
        if isinstance(members, int):
            if members < 0 or members >> graph.n:
                raise ValueError(f"mask {members:#x} out of range for n={graph.n}")
            mask = members
        else:
            mask = 0
            for v in members:
                if not 0 <= v < graph.n:
                    raise ValueError(f"vertex {v} out of range for n={graph.n}")
                mask |= 1 << v
        self.graph = graph
        self.mask = mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.graph.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            bit = m & -m
            yield bit.bit_length() - 1
            m ^= bit

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and other.graph is self.graph
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.graph), self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({sorted(self)})"

    def complement(self) -> "VertexSet":
        return VertexSet(self.graph, self.graph.full_mask & ~self.mask)

    def degrees(self) -> tuple[int, ...]:
        """Member degrees, in ascending vertex-id order."""
        d = self.graph.degrees
        return tuple(d[v] for v in self)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered id pairs; duplicates and reversals collapse.

    Raises ValueError for ids outside 0..n-1 or self-loops, naming the pair.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) is not a simple edge")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(rows)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS 'p edge' format with 1-based 'e u v' lines.

    The edge count in the header is advisory: a mismatch after deduplication
    is reported as a GraphInputWarning, not an error.
    """
    rows: list[int] | None = None
    n = claimed = 0
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if rows is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("expected 'p edge <n> <m>'", lineno)
            try:
                n, claimed = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-integer counts in problem line", lineno) from None
            if n < 0 or claimed < 0:
                raise ParseError("negative count in problem line", lineno)
            rows = [0] * n
        elif fields[0] == "e":
            if rows is None:
                raise ParseError("edge line before 'p edge' header", lineno)
            if len(fields) != 3:
                raise ParseError("expected 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-integer vertex id", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id outside 1..{n} in edge ({u},{v})", lineno)
            if u == v:
                raise ParseError(f"self-loop ({u},{v})", lineno)
            u -= 1
            v -= 1
            if rows[u] >> v & 1:
                duplicates += 1
            else:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        else:
            raise ParseError(f"unrecognized line type {fields[0]!r}", lineno)
    if rows is None:
        raise ParseError("missing 'p edge' header")
    g = Graph(rows)
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate edge line(s) collapsed", GraphInputWarning, stacklevel=2
        )
    if g.edge_count != claimed:
        warnings.warn(
            f"header claims {claimed} edges, found {g.edge_count}",
            GraphInputWarning,
            stacklevel=2,
        )
    return g


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_N_HEADER = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated 'u v' lines with an optional '# n=<count>' header.

    With the header, ids must be dense 1-based values in 1..n. Without it,
    labels may be arbitrary non-negative integers and are mapped to 0-based
    ids in order of first appearance (stable across runs).
    """
    n: int | None = None
    labels: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _N_HEADER.match(line)
            if m:
                if n is not None:
                    raise ParseError("duplicate vertex-count header", lineno)
                if pairs:
                    raise ParseError("vertex-count header after edge lines", lineno)
                n = int(m.group(1))
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError("expected two vertex ids per line", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("non-integer vertex id", lineno) from None
        if a == b:
            raise ParseError(f"self-loop ({a},{b})", lineno)
        if n is not None:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ParseError(f"vertex id outside 1..{n} in edge ({a},{b})", lineno)
            pairs.append((a - 1, b - 1))
        else:
            if a < 0 or b < 0:
                raise ParseError("negative vertex label", lineno)
            for x in (a, b):
                if x not in labels:
                    labels[x] = len(labels)
            pairs.append((labels[a], labels[b]))
    count = n if n is not None else len(labels)
    rows = [0] * count
    duplicates = 0
    for u, v in pairs:
        if rows[u] >> v & 1:
            duplicates += 1
        else:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate edge(s) collapsed", GraphInputWarning, stacklevel=2
        )
    return Graph(rows)


def emit_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair independently with probability p.

    Deterministic for a fixed seed; pairs are drawn in lexicographic order.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(rows)


def gen_regular(n: int, r: int, seed: int, max_attempts: int = 1000) -> Graph:
    """Random r-regular graph via the pairing model with rejection and retry.

    Each attempt repeatedly shuffles the unmatched degree stubs and joins
    consecutive ones that form a new simple edge, carrying conflicting stubs
    into the next pass; an attempt that makes no progress is rejected and
    restarted from scratch.
    """
    if not 0 <= r < n:
        raise ValueError(f"degree {r} must satisfy 0 <= r < n={n}")
    if n * r % 2:
        raise ValueError(f"n*r = {n * r} is odd; no {r}-regular graph on {n} vertices")
    if r == 0:
        return Graph([0] * n)
    rng = random.Random(seed)
    for _ in range(max_attempts):
        rows = [0] * n
        stubs = [v for v in range(n) for _ in range(r)]
        while stubs:
            rng.shuffle(stubs)
            leftover: list[int] = []
            progress = False
            i = 0
            while i + 1 < len(stubs):
                u, v = stubs[i], stubs[i + 1]
                if u != v and not rows[u] >> v & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    progress = True
                    i += 2
                else:
                    leftover.append(u)
                    i += 1
            leftover.extend(stubs[i:])
            stubs = leftover
            if stubs and not progress:
                break  # dead end; reject this attempt
        if not stubs:
            return Graph(rows)
    raise GenerationError(
        f"no simple {r}-regular pairing on {n} vertices after {max_attempts} attempts"
    )


def enumerate_graphs(n: int, limit: int = ENUMERATION_LIMIT) -> Iterator[Graph]:
    """Yield every labeled graph on n vertices exactly once.

    Edge subsets are walked in Gray-code order (one edge flips per step), a
    fixed deterministic sequence. Refuses n above the limit; sample with
    gen_gnp instead at that scale.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > limit:
        raise SizeLimitError(
            f"exhaustive enumeration capped at n={limit} (got {n}); sample with gen_gnp"
        )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [0] * n
    yield Graph(rows)
    for i in range(1, 1 << len(pairs)):
        u, v = pairs[(i & -i).bit_length() - 1]
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        yield Graph(rows)
