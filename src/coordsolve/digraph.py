"""Directed-graph machinery: SCCs, reachability closure, exact directed
tree-depth with elimination-tree certificates, and schedule extraction.

Every closure steps a whole frontier at a time through a neighbourhood-union
table (`_union_of`), read one byte of vertices per lookup.  A TreeDepth
builds its two tables once; the one-shot `scc`, `reach` and
`check_feasible_partition` build theirs per call."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, check_mask
from .errors import FieldError, PreconditionError


class Digraph:
    """Directed graph on vertices 0..n-1, no self-loops.  A self-loop or an
    endpoint outside 0..n-1 raises FieldError("edges", its index)."""

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        es = set()
        for idx, (i, j) in enumerate(edges):
            if i == j:
                raise FieldError("edges", idx, f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise FieldError("edges", idx, f"edge ({i},{j}) out of range")
            es.add((i, j))
        self.edges = frozenset(es)
        self._succ = [0] * n
        self._pred = [0] * n
        for i, j in es:
            self._succ[i] |= 1 << j
            self._pred[j] |= 1 << i

    @property
    def all_vertices(self):
        return (1 << self.n) - 1

    def out_mask(self, i):
        return self._succ[i]

    def in_mask(self, i):
        """In-neighborhood E_i = {j : (j,i) in E}."""
        return self._pred[i]

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class EliminationTree:
    """Certificate for directed tree-depth.

    A `removed` vertex with one child records the elimination step inside a
    strongly connected block; a node with several children splits into SCC
    subtrees; singleton leaves record the final vertex.  The tree's depth
    (eliminations count as a level, splits do not) equals the certified value.
    """

    vertices: int
    removed: int | None
    children: tuple

    @property
    def depth(self):
        if self.vertices == 0:
            return 0
        if self.removed is not None:
            if not self.children:
                return 1  # singleton leaf
            return 1 + self.children[0].depth
        return max(c.depth for c in self.children)


def _union_of(adj):
    """The map m -> OR of adj[v] over the vertices v of mask m, read from one
    table per byte of vertices: entry b of byte k's table is the union over
    the set bits of b, so a mask costs one lookup per byte instead of one
    step per vertex.  One table is its own `__getitem__` and two are one
    lambda; more are read in a loop."""
    tables = []
    for base in range(0, len(adj) or 1, 8):
        table = [0]
        for a in adj[base : base + 8]:
            table += [t | a for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        low, high = tables
        return lambda m: low[m & 255] | high[m >> 8]

    def union(m):
        out = 0
        for table in tables:
            out |= table[m & 255]
            m >>= 8
        return out

    return union


def _closure(union, start, within):
    """Vertices of `within` reachable from `start` by steps of `union` (start
    included, which must lie in `within`)."""
    seen = frontier = start
    while frontier:
        frontier = union(frontier) & within & ~seen
        seen |= frontier
    return seen


def _components(into, outof, mask):
    """SCC masks of the subgraph induced on `mask`, in no particular order.
    `into(m)` holds the heads of the edges leaving m and `outof(m)` the
    tails of the edges entering it."""
    comps = []
    while mask:
        start = mask & -mask
        # A vertex reachable from `start` that also reaches it has every path
        # back inside the forward closure, so the backward pass stays there.
        comp = _closure(outof, start, _closure(into, start, mask))
        comps.append(comp)
        mask &= ~comp
    return comps


def _cyclic(into, mask):
    """Does the subgraph induced on `mask` have a cycle?  Peels every source
    (a vertex with no in-neighbour left in the mask) at once until a pass
    peels none, which leaves a cycle behind, or the mask is empty."""
    while mask:
        rest = mask & into(mask)
        if rest == mask:
            return True
        mask = rest
    return False


def _sources_first(outof, comps, mask):
    """The SCC masks `comps` of the subgraph induced on `mask`, in a
    topological order of its condensation (sources first): by ascending
    ancestor count, as an edge from one block into another gives the second
    strictly more ancestors.  Ties keep the order of `comps`."""
    if len(comps) > 1:
        comps = sorted(comps, key=lambda c: _closure(outof, c, mask).bit_count())
    return comps


def scc(g, vertices=None):
    """Strongly connected components of the induced subgraph, as masks in a
    topological order of the condensation (sources first).  Singletons count
    as strongly connected."""
    if vertices is None:
        vertices = g.all_vertices
    check_mask(g.n, vertices, "vertices")
    outof = _union_of(g._pred)
    return _sources_first(outof, _components(_union_of(g._succ), outof, vertices), vertices)


def reach(g, targets, vertices=None):
    """R(X): all vertices that can reach some member of X (length-0 paths
    included, so R(X) contains X).  Predecessor closure.  One call builds its
    own table; a TreeDepth's `reach` reuses the search's."""
    return _reach(g, _union_of(g._pred), targets, vertices)


def _reach(g, outof, targets, vertices):
    if vertices is None:
        vertices = g.all_vertices
    check_mask(g.n, targets, "targets")
    check_mask(g.n, vertices, "vertices")
    return _closure(outof, targets & vertices, vertices)


class TreeDepth:
    """Exact directed tree-depth of the subgraphs of one digraph, memoised
    across queries.

    td(empty)=0, td(singleton)=1; a strongly connected block with >=2 vertices
    costs 1 plus the best vertex removal; otherwise the value is the max over
    SCC subgraphs.  Directed tree-depth is cycle rank + 1 (Eggan 1963).

    The search carries a limit: `depth(mask, limit)` and `block_depth(block,
    limit)` return the exact value when it is below `limit`, and otherwise a
    lower bound of at least `limit`.  Exact values go to one int memo and
    cut-off bounds to a second.  Every mask split into its SCCs (by
    closures over the in- and out-neighbourhood union tables the object
    builds once, see `_union_of`) keeps the split in a third memo, a block
    as a one-element list, so a later search with a higher limit reuses the
    split and every induced subgraph is split at most once.  At limit 2 an
    unsplit mask only needs to know whether it has a cycle: peeling all its
    sources at once, pass after pass, answers that, and a cyclic mask is
    bounded by 2 without being split (an acyclic one, rare, is split into
    its singletons and is exact at 1).  A mask's max over its SCCs
    stops at the first SCC that reaches the limit.  A block's scan tries each
    removal in ascending index under a cap that starts at the caller's limit
    and drops to each new strict best, calling `depth(block - v, cap - 1)`;
    it stops at depth 2, the least a non-singleton block can have.  Cut-off
    candidates are at least the best so far, so the recorded removal is the
    first vertex of strictly least depth.

    An exact value, a bound, a split and a recorded removal belong to the
    induced subgraph alone, not to the query that found them, so the memos
    serve every later query on any vertex mask: `value` searches with limit
    n + 1 and is exact, and `certificate` walks the recorded removals and
    splits, with split nodes listing their blocks in the topological order
    of `scc` (a mask with no split, or a split of one, is a block); `reach`
    reads the same tables.  The memos and tables live as long as the
    object, not the graph; callers that want a bounded footprint make one
    per query (see tree_depth).
    """

    def __init__(self, g):
        self.g = g
        into = _union_of(g._succ)
        self._outof = outof = _union_of(g._pred)
        memo = {0: 0}
        lower = {}  # mask -> lower bound, for masks cut off so far
        splits = {}  # mask -> its SCC masks, for every mask split so far
        removed = {}

        def depth(mask, limit):
            value = memo.get(mask)
            if value is not None:
                return value
            bound = lower.get(mask)
            if bound is not None and bound >= limit:
                return bound
            comps = splits.get(mask)
            if comps is None:
                if limit <= 2 and _cyclic(into, mask):
                    lower[mask] = 2  # a cycle needs depth 2
                    return 2
                comps = splits[mask] = _components(into, outof, mask)
            value = 0
            for c in comps:
                d = block_depth(c, limit)
                if d >= limit:
                    lower[mask] = d
                    return d
                if d > value:
                    value = d
            memo[mask] = value
            return value

        def block_depth(block, limit):
            if block.bit_count() == 1:
                return 1
            value = memo.get(block)
            if value is not None:
                return value
            if limit <= 2:
                return 2  # the least depth of a non-singleton block
            bound = lower.get(block)
            if bound is not None and bound >= limit:
                return bound
            cap = limit
            rest = block
            while rest:
                low = rest & -rest
                rest ^= low
                cand = 1 + depth(block ^ low, cap - 1)
                if cand < cap:
                    cap = cand
                    removed[block] = low.bit_length() - 1
                    if cap == 2:
                        break
            if cap < limit:
                memo[block] = cap
                return cap
            lower[block] = limit  # every candidate was >= limit
            return limit

        self._depth = depth
        self._splits = splits
        self._removed = removed

    def value(self, vertices=None):
        """Exact tree-depth of the subgraph induced on `vertices` (every
        vertex by default)."""
        if vertices is None:
            vertices = self.g.all_vertices
        check_mask(self.g.n, vertices, "vertices")
        return self._depth(vertices, self.g.n + 1)

    def reach(self, targets, vertices=None):
        """`reach(g, targets, vertices)` read from this search's tables."""
        return _reach(self.g, self._outof, targets, vertices)

    def certificate(self, vertices=None):
        """EliminationTree certifying `value(vertices)`, built along the
        recorded removals and splits."""
        if vertices is None:
            vertices = self.g.all_vertices
        self.value(vertices)
        outof, splits, removed = self._outof, self._splits, self._removed

        def certificate(mask):
            if mask == 0:
                return EliminationTree(0, None, ())
            comps = splits.get(mask)
            if comps is None or len(comps) == 1:  # a block
                return block_certificate(mask)
            return EliminationTree(
                mask,
                None,
                tuple(block_certificate(c) for c in _sources_first(outof, comps, mask)),
            )

        def block_certificate(block):
            if block.bit_count() == 1:
                return EliminationTree(block, block.bit_length() - 1, ())
            v = removed[block]
            return EliminationTree(block, v, (certificate(block & ~(1 << v)),))

        return certificate(vertices)


def tree_depth(g, vertices=None):
    """Exact directed tree-depth of the subgraph induced on `vertices` (every
    vertex by default), with its elimination-tree certificate: one query on a
    fresh TreeDepth, so nothing outlives the call."""
    depths = TreeDepth(g)
    return depths.value(vertices), depths.certificate(vertices)


def _levels(tree):
    """Per-level vertex masks of an elimination tree (level 1 first)."""
    if tree.vertices == 0:
        return []
    if tree.removed is not None:
        rest = _levels(tree.children[0]) if tree.children else []
        return [1 << tree.removed] + rest
    merged = []
    for child in tree.children:
        for t, m in enumerate(_levels(child)):
            if t == len(merged):
                merged.append(0)
            merged[t] |= m
    return merged


def partition_from_certificate(cert, T):
    """The T-cell schedule an elimination tree certifies: the removed vertex
    goes to the earliest free slot, SCC siblings are merged slot-wise.  Cells
    beyond the tree's depth are left empty (trailing padding).  No two
    same-cell vertices are strongly connected in the suffix subgraph."""
    cells = _levels(cert)
    if len(cells) > T:
        raise PreconditionError(f"tree-depth {len(cells)} exceeds requested horizon {T}")
    cells += [0] * (T - len(cells))
    return Partition(cells)


def partition_from_treedepth(g, T, vertices=None):
    """`partition_from_certificate` of the tree-depth certificate of the
    subgraph induced on `vertices`."""
    return partition_from_certificate(tree_depth(g, vertices)[1], T)


def check_feasible_partition(g, p, M=None):
    """Does the schedule separate M?  For every cell t, no two members of
    cell_t ∩ M may be strongly connected in the subgraph induced on the suffix
    (cells t..T) intersected with M."""
    if M is None:
        M = g.all_vertices
    check_mask(g.n, M, "M")
    into, outof = _union_of(g._succ), _union_of(g._pred)
    suffix = p.union() & M
    for cell in p.cells:
        focus = cell & M
        if focus.bit_count() > 1:
            for comp in _components(into, outof, suffix):
                if (comp & focus).bit_count() > 1:
                    return False
        suffix &= ~cell
    return True
