import random
import re
from functools import reduce
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from coordsolve import (
    Digraph,
    PreconditionError,
    check_feasible_partition,
    mask_of,
    members,
    partition_from_treedepth,
    reach,
    scc,
    tree_depth,
)
from coordsolve import digraph
from coordsolve.core import Partition, bits

import util
from util import (
    clique_edges,
    cycle_graph,
    cycle_rank,
    cycle_union_digraph,
    hub_intervention_graph,
    random_digraph,
    tree_depth_reference,
    tree_depth_uncut_reference,
    tree_depth_unpeeled_reference,
    two_triangles_graph,
)


def complete_graph(n):
    return Digraph(n, clique_edges(n))


# -- construction -------------------------------------------------------------


def test_no_self_loops():
    with pytest.raises(ValueError):
        Digraph(3, [(0, 0)])


def test_in_out_masks():
    g = Digraph(3, [(0, 1), (2, 1)])
    assert g.in_mask(1) == mask_of((0, 2))
    assert g.out_mask(0) == mask_of((1,))


# -- scc ----------------------------------------------------------------------


def test_scc_two_triangles():
    comps = scc(two_triangles_graph())
    assert {frozenset(members(c)) for c in comps} == {
        frozenset((0, 1, 2)),
        frozenset((3, 4, 5)),
        frozenset((6, 7)),
    }
    # topological: the sink pair must come last
    assert members(comps[-1]) == (6, 7)


def test_scc_cycle_single_component():
    comps = scc(cycle_graph(8))
    assert len(comps) == 1
    assert comps[0] == (1 << 8) - 1


def test_scc_edgeless_singletons():
    comps = scc(Digraph(3, []))
    assert sorted(comps) == [1, 2, 4]


def test_scc_topological_order_random():
    rng = random.Random(5)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(2, 8), 0.3)
        comps = scc(g)
        seen = 0
        for comp in comps:
            for i, j in g.edges:
                # no edge from an unseen component into an already-listed one
                if (1 << i) & ~(seen | comp) and (1 << j) & comp:
                    raise AssertionError("condensation order violated")
            seen |= comp


# -- reach --------------------------------------------------------------------


def test_reach_hub_graph():
    g = hub_intervention_graph()
    assert reach(g, 1 << 4) == mask_of((0, 1, 2, 3, 4))


def test_reach_empty():
    assert reach(two_triangles_graph(), 0) == 0


def test_reach_strongly_connected():
    g = cycle_graph(6)
    for i in range(6):
        assert reach(g, 1 << i) == g.all_vertices


def test_reach_is_a_closure_operator():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n)
        X = rng.randrange(1 << n)
        Y = rng.randrange(1 << n)
        rx = reach(g, X)
        assert rx & X == X  # extensive
        assert reach(g, rx) == rx  # idempotent
        if X & ~Y == 0:
            assert rx & ~reach(g, Y) == 0  # monotone


# -- tree_depth ---------------------------------------------------------------


def test_tree_depth_base_cases():
    g = Digraph(2, [])
    assert tree_depth(g, 0)[0] == 0
    assert tree_depth(g, 1)[0] == 1


def test_tree_depth_cycle_is_two():
    value, cert = tree_depth(cycle_graph(8))
    assert value == 2
    assert cert.depth == 2


def test_tree_depth_cliques():
    assert tree_depth(complete_graph(4))[0] == 4
    assert tree_depth(complete_graph(3))[0] == 3


def test_tree_depth_deterministic_certificate():
    _, cert = tree_depth(cycle_graph(5))
    assert cert.removed == 0  # lowest-index tie-break


def _check_certificate(g, tree, vertices):
    """The certificate must replay: structure matches the SCC recursion."""
    assert tree.vertices == vertices
    if vertices == 0:
        return
    comps = scc(g, vertices)
    if len(comps) > 1:
        assert tree.removed is None
        assert {c.vertices for c in tree.children} == set(comps)
        for child in tree.children:
            _check_certificate(g, child, child.vertices)
    elif vertices.bit_count() == 1:
        assert tree.removed == vertices.bit_length() - 1
        assert tree.children == ()
    else:
        assert tree.removed is not None and (vertices >> tree.removed) & 1
        (child,) = tree.children
        _check_certificate(g, child, vertices & ~(1 << tree.removed))


def test_certificate_replays():
    rng = random.Random(21)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(1, 7))
        value, cert = tree_depth(g)
        assert cert.depth == value
        _check_certificate(g, cert, g.all_vertices)


def test_tree_depth_equals_cycle_rank_plus_one():
    rng = random.Random(0xBEEF)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.6))
        expect = 1 + cycle_rank(range(n), g.edges)
        assert tree_depth(g)[0] == expect


def test_tree_depth_monotone_in_edges():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_digraph(rng, n, 0.25)
        base = tree_depth(g)[0]
        candidates = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and (i, j) not in g.edges
        ]
        if not candidates:
            continue
        extra = rng.choice(candidates)
        bigger = Digraph(n, set(g.edges) | {extra})
        assert tree_depth(bigger)[0] >= base


@st.composite
def digraphs_with_vertices(draw):
    """A digraph on at most 8 vertices, and either None (every vertex) or a
    random vertex subset."""
    n = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    vertices = draw(st.none() | st.integers(0, (1 << n) - 1))
    return Digraph(n, edges), vertices


def recorded_splits(module, search, g, vertices=None):
    """Run `search(g, vertices)` and list the masks it hands to `module`'s
    `_components`, in call order.  A fresh search of a vertex set with a
    cycle splits that set at least, so an empty list there means the search
    no longer splits through `module._components` and records nothing."""
    split = []
    components = module._components

    def recording(into, outof, mask):
        split.append(mask)
        return components(into, outof, mask)

    with patch.object(module, "_components", recording):
        result = search(g, vertices)
    searched = g.all_vertices if vertices is None else vertices
    if any(c.bit_count() > 1 for c in util.scc_reference(g, searched)):
        assert split, f"no split recorded through {module.__name__}._components"
    return result, split


@settings(max_examples=400, deadline=None)
@given(digraphs_with_vertices())
def test_tree_depth_matches_reference(case):
    g, vertices = case
    (value, cert), split = recorded_splits(digraph, tree_depth, g, vertices)
    assert len(split) == len(set(split))  # every induced subgraph split once
    ref_value, ref_cert = tree_depth_reference(g, vertices)
    assert value == ref_value
    assert cert == ref_cert
    assert cert.depth == value
    for T in (max(value, 1), value + 2):
        p = partition_from_treedepth(g, T, vertices)
        assert p.cells == digraph.partition_from_certificate(ref_cert, T).cells


@st.composite
def digraphs_with_masks(draw):
    """A digraph on at most 8 vertices with either None (every vertex) or a
    random vertex subset, a random target mask, and a 3-cell schedule of a
    random set of vertices."""
    g, vertices = draw(digraphs_with_vertices())
    targets = draw(st.integers(0, g.all_vertices))
    cells = [0, 0, 0]
    for v in range(g.n):
        slot = draw(st.integers(0, 3))  # slot 3 leaves v out of the schedule
        if slot < 3:
            cells[slot] |= 1 << v
    return g, vertices, targets, Partition(cells)


def sibling_sorted(tree):
    """`tree` with each split node's children sorted by vertex mask."""
    children = tuple(sibling_sorted(c) for c in tree.children)
    if tree.removed is None:
        children = tuple(sorted(children, key=lambda c: c.vertices))
    return digraph.EliminationTree(tree.vertices, tree.removed, children)


@settings(max_examples=400, deadline=None)
@given(digraphs_with_masks())
def test_closures_match_the_tarjan_references(case):
    g, vertices, targets, p = case
    comps = scc(g, vertices)
    assert sorted(comps) == sorted(util.scc_reference(g, vertices))
    place = {v: k for k, c in enumerate(comps) for v in members(c)}
    assert all(place[i] <= place[j] for i, j in g.edges if i in place and j in place)
    assert reach(g, targets, vertices) == util.reach_reference(g, targets, vertices)
    value, cert = tree_depth(g, vertices)
    # the search as it was, splitting each certificate node by Tarjan's DFS
    with patch.object(util, "scc", util.scc_reference):
        ref_value, ref_cert = tree_depth_reference(g, vertices)
    assert value == ref_value
    assert sibling_sorted(cert) == sibling_sorted(ref_cert)
    for T in (max(value, 1), value + 1):
        cells = digraph.partition_from_certificate(cert, T).cells
        assert cells == digraph.partition_from_certificate(ref_cert, T).cells
    feasible = check_feasible_partition(g, p, vertices)
    assert feasible == util.check_feasible_partition_reference(g, p, vertices)


@st.composite
def digraphs_with_query_lists(draw):
    """A digraph on at most 8 vertices and a list of vertex masks to query
    in order, each drawn mask preceded by one of its submasks."""
    g, _ = draw(digraphs_with_vertices())
    full = g.all_vertices
    masks = []
    for _ in range(draw(st.integers(1, 6))):
        mask = draw(st.integers(0, full))
        masks += [mask & draw(st.integers(0, full)), mask]
    return g, masks


def assert_queries_match_fresh_searches(g, masks):
    """One TreeDepth queried on `masks` in order gives every value and whole
    certificate a fresh tree_depth gives, and splits each induced subgraph
    at most once over all the queries."""
    depths = digraph.TreeDepth(g)

    def queries(g, _):
        return [(depths.value(m), depths.certificate(m)) for m in masks]

    # the searched vertices are the masks' union: a fresh search splits
    # its first nonzero mask, and a cyclic union has one
    answers, split = recorded_splits(digraph, queries, g, reduce(or_, masks, 0))
    assert len(split) == len(set(split))
    for mask, answer in zip(masks, answers):
        assert answer == tree_depth(g, mask)


@settings(max_examples=300, deadline=None)
@given(digraphs_with_query_lists())
def test_tree_depth_memo_serves_many_queries(case):
    assert_queries_match_fresh_searches(*case)


@pytest.mark.parametrize("descending", [False, True])
def test_tree_depth_memo_serves_every_mask(descending):
    # descending order queries each superset first, so a subset queried
    # later reuses, and raises, bounds its superset's cut-offs left behind
    rng = random.Random(1616)
    graphs = [complete_graph(4), cycle_graph(5), two_triangles_graph()]
    graphs += [random_digraph(rng, 6, p) for p in (0.3, 0.5, 0.7)]
    for g in graphs:
        masks = list(range(1 << g.n))
        assert_queries_match_fresh_searches(g, masks[::-1] if descending else masks)


@st.composite
def cutoff_digraphs_with_vertices(draw):
    """Graphs whose blocks have many removals of unequal depth, so the
    search's cutoffs fire: unions of 2-3 random Hamiltonian cycles, or
    Bernoulli digraphs, on at most 10 vertices; with either None (every
    vertex) or a random vertex subset."""
    n = draw(st.integers(2, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = cycle_union_digraph(rng, n, draw(st.integers(2, 3)))
    else:
        g = random_digraph(rng, n, draw(st.sampled_from((0.35, 0.5, 0.65))))
    vertices = draw(st.none() | st.integers(0, (1 << n) - 1))
    return g, vertices


# a dense 6-vertex graph on which a cut-off bound taken for an exact value,
# a scan capped one lower, or a scan stopped at its first candidate below
# the limit each gives a wrong value or no certificate
DENSE_SIX = Digraph(6, [
    (0, 2), (0, 3), (0, 5), (1, 0), (1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (2, 5),
    (3, 2), (3, 4), (3, 5), (4, 0), (4, 2), (4, 3), (4, 5), (5, 2), (5, 3), (5, 4),
])


@settings(max_examples=300, deadline=None)
@given(cutoff_digraphs_with_vertices())
@example((DENSE_SIX, None))
def test_tree_depth_with_cutoffs_matches_reference(case):
    g, vertices = case
    (value, cert), split = recorded_splits(digraph, tree_depth, g, vertices)
    assert len(split) == len(set(split))  # every induced subgraph split once
    assert (value, cert) == tree_depth_reference(g, vertices)
    assert cert.depth == value


def split_totals_on_cycle_unions(reference):
    """The masks `tree_depth` and `reference` (which splits through util's
    `_components`) split in total on twelve seeded unions of three
    Hamiltonian cycles, n = 9-11, after checking both give the same value
    and certificate on each."""
    rng = random.Random(14)
    ours = theirs = 0
    for n in (9, 10, 11) * 4:
        g = cycle_union_digraph(rng, n, 3)
        got, split = recorded_splits(digraph, tree_depth, g)
        want, reference_split = recorded_splits(util, reference, g)
        assert got == want
        ours += len(split)
        theirs += len(reference_split)
    return ours, theirs


def test_cutoffs_split_fewer_subgraphs_than_the_uncut_search():
    # A cut-off search can split a mask the uncut one only met as a memoised
    # block, so fewer splits hold in total, not on every graph.
    ours, uncut = split_totals_on_cycle_unions(tree_depth_uncut_reference)
    assert ours < uncut


def test_peeling_splits_fewer_subgraphs_than_the_unpeeled_search():
    # at limit 2 a cyclic mask is bounded by the peel, not split into SCCs
    ours, unpeeled = split_totals_on_cycle_unions(tree_depth_unpeeled_reference)
    assert ours < unpeeled


@settings(max_examples=300, deadline=None)
@given(digraphs_with_vertices())
def test_cyclic_peel_matches_the_tarjan_sccs(case):
    g, vertices = case
    masks = [g.all_vertices if vertices is None else vertices, 0]
    masks += [1 << v for v in range(g.n)]
    for mask in masks:
        want = any(c.bit_count() > 1 for c in util.scc_reference(g, mask))
        assert digraph._cyclic(digraph._union_of(g._succ), mask) == want


def recorded_peels_and_splits(module, search):
    """Run `search()` and list, in call order, each mask it hands to
    `module`'s `_cyclic` or `_components`, tagged with the function."""
    calls = []

    def recording(name):
        inner = getattr(module, name)

        def record(adj, *rest):
            calls.append((name, rest[-1]))
            return inner(adj, *rest)

        return record

    with patch.object(module, "_cyclic", recording("_cyclic")), patch.object(
        module, "_components", recording("_components")
    ):
        result = search()
    return result, calls


def table_shape_graphs(shape):
    """Seeded graphs whose union tables take one shape: one table (n <= 8),
    two (n = 9-16) or the loop over three (unions of three Hamiltonian
    cycles, n = 17-20)."""
    rng = random.Random(38)
    if shape == "one table":
        graphs = [Digraph(0, []), random_digraph(rng, 5, 0.5), DENSE_SIX]
        graphs += [cycle_union_digraph(rng, 8, 3), random_digraph(rng, 8, 0.4)]
    elif shape == "two tables":
        graphs = [cycle_union_digraph(rng, n, 3) for n in (9, 12)]
        graphs += [random_digraph(rng, 11, 0.3), cycle_union_digraph(rng, 16, 2)]
    else:
        graphs = [cycle_union_digraph(rng, n, 3) for n in (17, 20)]
    return rng, graphs


@pytest.mark.parametrize("shape", ["one table", "two tables", "looped tables"])
def test_union_tables_match_the_per_vertex_search(shape):
    rng, graphs = table_shape_graphs(shape)
    for g in graphs:
        full = g.all_vertices
        masks = [full, rng.randint(0, full), rng.randint(0, full)]
        for adj in (g._succ, g._pred):
            union = digraph._union_of(adj)
            for m in masks + [0]:
                assert union(m) == reduce(or_, (adj[v] for v in bits(m)), 0)
        depths = digraph.TreeDepth(g)
        reference = util.TreeDepthPerVertexReference(g)

        def queries(search):
            return lambda: [(search.value(m), search.certificate(m)) for m in masks]

        answers, calls = recorded_peels_and_splits(digraph, queries(depths))
        want, reference_calls = recorded_peels_and_splits(util, queries(reference))
        assert answers == want
        assert calls == reference_calls
        assert depths._splits == reference._splits
        assert depths._removed == reference._removed
        for _ in range(4):
            targets = rng.randint(0, full)
            vertices = rng.choice([None, rng.randint(0, full)])
            want_reach = util.reach_reference(g, targets, vertices)
            assert depths.reach(targets, vertices) == want_reach


def test_out_of_range_masks_name_the_stray_bits():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    cases = [
        (lambda: tree_depth(g, 0b1000), "[3]"),
        (lambda: scc(g, 0b11000), "[3, 4]"),
        (lambda: reach(g, 0b1000), "[3]"),
        (lambda: reach(g, 1, 0b10001), "[4]"),
        (lambda: partition_from_treedepth(g, 3, 0b1001), "[3]"),
        (lambda: scc(g, -1), "negative"),
        (lambda: check_feasible_partition(g, Partition([0b1001]), 0b1001), "[3]"),
    ]
    for call, stray in cases:
        with pytest.raises(ValueError, match=re.escape(stray)):
            call()


# -- partition_from_treedepth -------------------------------------------------


def test_partition_cycle_two_cells():
    g = cycle_graph(8)
    p = partition_from_treedepth(g, 2)
    assert p.cells[0].bit_count() == 1
    assert p.cells[0] | p.cells[1] == g.all_vertices
    assert check_feasible_partition(g, p)


def test_partition_edgeless_single_cell():
    g = Digraph(4, [])
    p = partition_from_treedepth(g, 1)
    assert p.cells == (g.all_vertices,)
    assert check_feasible_partition(g, p)


def test_partition_clique_singletons():
    g = complete_graph(4)
    p = partition_from_treedepth(g, 4)
    assert [c.bit_count() for c in p.cells] == [1, 1, 1, 1]
    assert check_feasible_partition(g, p)


def test_partition_infeasible_horizon():
    with pytest.raises(PreconditionError):
        partition_from_treedepth(complete_graph(4), 3)


def test_partition_always_feasible_with_padding():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 7)
        g = random_digraph(rng, n, 0.4)
        value, _ = tree_depth(g)
        T = value + rng.randint(0, 2)
        p = partition_from_treedepth(g, T)
        assert len(p.cells) == T
        assert sum(c.bit_count() for c in p.cells) == n
        assert len([c for c in p.cells if c]) <= value
        assert check_feasible_partition(g, p)


# -- check_feasible_partition --------------------------------------------------


def test_feasible_rejects_shared_suffix_component():
    g = two_triangles_graph()
    p = Partition([mask_of((2, 5, 7)), mask_of((0, 1, 3, 4, 6))])
    assert not check_feasible_partition(g, p)  # 0,1 share the suffix triangle


def test_feasible_all_singletons():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 6)
        g = random_digraph(rng, n, 0.5)
        p = Partition([1 << i for i in range(n)])
        assert check_feasible_partition(g, p)


def test_feasible_cycle_head_and_tail():
    g = cycle_graph(8)
    p = Partition([1 << 0, mask_of(range(1, 8))])
    assert check_feasible_partition(g, p)


def test_feasible_k2_in_one_cell_fails():
    g = Digraph(2, [(0, 1), (1, 0)])
    p = Partition([mask_of((0, 1))])
    assert not check_feasible_partition(g, p)
