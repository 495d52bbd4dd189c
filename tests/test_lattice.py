import gc
import weakref
from itertools import combinations, product
from math import gcd
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arfrf.lattice
from arfrf import families, verifier
from arfrf.errors import DimensionMismatch, NotSublattice
from arfrf.intmat import (
    bareiss_determinant,
    hermite_normal_form,
    hnf_coordinates,
    product_determinants,
)
from arfrf.lattice import (
    binomial_from_vector,
    degree,
    is_generic,
    first_row_differences,
    kernel_lattice,
    lattice_coordinates,
    lattice_index,
    rf_difference_lattice,
    rf_relations,
    row_differences,
)
from arfrf.rfmatrix import (
    determinant,
    find_frobenius_det_witness,
    is_rf_matrix,
    iter_rf_matrices,
    rf_matrices,
    rf_matrix_count,
    rf_row_choices,
)
from arfrf.semigroup import from_generators
from arfrf.verifier import VerifyConfig, cofactor_determinant, parse_config_text, random_semigroups

from test_semigroup import gen_sets

QUICK_CFG = Path(__file__).resolve().parent / "data" / "golden_quick.cfg"

PAPER_DIFFS = {
    (1, 2): (-3, 1, -1, 1),
    (1, 3): (-11, 0, 1, 1),
    (1, 4): (-9, -1, 0, 2),
    (2, 3): (-8, -1, 2, 0),
    (2, 4): (-6, -2, 1, 1),
    (3, 4): (2, -1, -1, 1),
}


class TestDegree:
    def test_examples(self):
        sg = from_generators([4, 10, 21, 23])
        assert degree(sg, (-1, 0, 0, 1)) == 19
        assert degree(sg, (0, 0, 0, 0)) == 0
        assert degree(from_generators([2, 5]), (5, -2)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            degree(from_generators([2, 5]), (1, 2, 3))


def _maximal_minor_gcd(basis, dim):
    minors = []
    for drop in range(dim):
        square = [[row[c] for c in range(dim) if c != drop] for row in basis]
        minors.append(abs(bareiss_determinant(square)))
    return reduce(gcd, minors)


def _kernel_by_hermite_reduction(sg):
    """V(S) by one Hermite reduction, the oracle of the gcd-chain basis: the rows
    (n_i, e_i) span {(degree(x), x)}, and as gcd(n_i) = 1 the rows of their
    Hermite form after the first, without their leading 0, are V(S)."""
    e = sg.embedding_dimension
    first, *rest = hermite_normal_form(
        [(n, *(int(i == j) for j in range(e))) for i, n in enumerate(sg.generators)], e + 1)
    assert first[0] == 1 and all(row[0] == 0 for row in rest)
    return tuple(row[1:] for row in rest)


class TestKernelLattice:
    def test_matches_hermite_reduction_on_default_grid(self):
        # every multiplicity <= 5 variant up to s = 200, and every med shape
        # m = 6..10 with s = m..10m
        sources = [*families.M_LE_5_VARIANTS, "med"]
        instances = 0
        for _, sg, _, _ in verifier._instances(VerifyConfig(), sources):
            assert kernel_lattice(sg) == _kernel_by_hermite_reduction(sg)
            instances += 1
        assert instances == 3066

    @given(gen_sets(max_value=300, max_size=7))
    @example((6, 10, 15))  # gcd chain 1, 5, 15: pivots 5 and 3
    @example((4, 6, 9))  # gcd chain 1, 3, 9: pivots 3 and 3
    @example((1,))  # S = N: V(S) has rank 0
    @example((101, 100003))
    @settings(max_examples=200, deadline=None)
    def test_matches_hermite_reduction(self, gens):
        sg = from_generators(gens)
        assert kernel_lattice(sg) == _kernel_by_hermite_reduction(sg)

    def test_rank_one_cases(self):
        assert kernel_lattice(from_generators([2, 5])) == ((5, -2),)
        assert kernel_lattice(from_generators([2, 3])) == ((3, -2),)

    def test_worked_example(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        assert len(V) == 3
        assert all(degree(sg, v) == 0 for v in V)
        assert _maximal_minor_gcd(V, 4) == 1

    @given(gen_sets(max_value=50, max_size=6))
    @example((10, *range(31, 40)))
    @example((16, *range(49, 64)))  # the med shape with m = 16, s = 48
    @example((101, 100003))
    @settings(max_examples=60, deadline=None)
    def test_saturation(self, gens):
        sg = from_generators(gens)
        V = kernel_lattice(sg)
        e = sg.embedding_dimension
        assert len(V) == e - 1
        # lattice_index reads coordinates in V, so V must already be in Hermite form
        assert hermite_normal_form(V, e) == V
        assert all(degree(sg, v) == 0 for v in V)
        if V:
            assert _maximal_minor_gcd(V, e) == 1


class TestDifferenceLattice:
    def test_worked_example_generators(self):
        sg = from_generators([4, 10, 21, 23])
        witness = find_frobenius_det_witness(sg)
        diffs = row_differences(witness)
        e = 4
        expected = [
            PAPER_DIFFS[(i + 1, j + 1)] for i in range(e) for j in range(i + 1, e)
        ]
        assert list(diffs) == expected
        assert all(degree(sg, d) == 0 for d in diffs)

    def test_two_generator_lattice_is_full(self):
        sg = from_generators([2, 5])
        [m] = rf_matrices(sg, 3)
        W = rf_difference_lattice(m)
        V = kernel_lattice(sg)
        assert W == V
        assert _index(W, V) == 1

    def test_reduced_basis_spans_all_pairs(self):
        sg = from_generators([5, 19, 21, 22, 23])
        for matrix in rf_matrices(sg, 18):
            W = rf_difference_lattice(matrix)
            assert all(hnf_coordinates(W, d) is not None for d in row_differences(matrix))

    def test_basis_equals_hermite_form_of_all_pairs(self):
        # the stored basis comes from the first-row differences; it must be
        # identical to the Hermite form of the full pairwise generating set
        from arfrf.intmat import hermite_normal_form

        for gens in [(4, 10, 21, 23), (5, 19, 21, 22, 23), (6, 25, 26, 27, 28, 29)]:
            sg = from_generators(gens)
            for f in sg.pseudo_frobenius():
                for matrix in rf_matrices(sg, f):
                    W = rf_difference_lattice(matrix)
                    full = hermite_normal_form(row_differences(matrix), len(matrix))
                    assert W == full


def _index(vectors, V):
    """The per-matrix path: coordinates of every vector, then |det| of them."""
    return lattice_index(lattice_coordinates(vectors, V))


class TestLatticeIndex:
    def test_identity(self):
        V = kernel_lattice(from_generators([2, 5]))
        assert lattice_coordinates(V, V) == [(1,)]
        assert lattice_index([(1,)]) == 1

    def test_worked_example(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        W = rf_difference_lattice(find_frobenius_det_witness(sg))
        assert _index(W, V) == 1

    def test_doubled_rank_one_basis(self):
        V = kernel_lattice(from_generators([2, 5]))
        doubled = hermite_normal_form([(10, -4)], 2)
        assert lattice_coordinates(doubled, V) == [(2,)]
        assert lattice_index([(2,)]) == 2
        # a generating set with more vectors than the rank is not square
        assert lattice_coordinates([(10, -4), (5, -2)], V) == [(2,), (1,)]
        with pytest.raises(ValueError):
            lattice_index([(2,), (1,)])

    def test_not_sublattice(self):
        V = kernel_lattice(from_generators([2, 5]))
        alien = hermite_normal_form([(1, 0)], 2)
        with pytest.raises(NotSublattice):
            lattice_coordinates(alien, V)
        with pytest.raises(NotSublattice):
            lattice_coordinates([(5, -2), (4, -2)], V)
        with pytest.raises(DimensionMismatch):
            lattice_coordinates([(5, -2, 0)], V)

    def test_rank_zero_ambient(self):
        # N = <1> has V = 0: only the empty vector lies in it, and the index is 1
        V = kernel_lattice(from_generators([1]))
        assert V == ()
        assert lattice_coordinates([()], V) == [()]
        with pytest.raises(NotSublattice):
            lattice_coordinates([(1,)], V)
        assert lattice_index([]) == 1

    def test_infinite_index_on_rank_drop(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        sub = hermite_normal_form([V[0]], 4)
        # fewer rows than the rank of V are not square
        with pytest.raises(ValueError):
            lattice_index(lattice_coordinates(sub, V))
        with pytest.raises(ValueError):
            lattice_index([(1, 0, 0)])
        # exactly rank(V) vectors, but linearly dependent
        a, b, _ = V
        dependent = [a, b, tuple(x - 2 * y for x, y in zip(a, b))]
        assert lattice_coordinates(dependent, V) == [(1, 0, 0), (0, 1, 0), (1, -2, 0)]
        assert lattice_index([(1, 0, 0), (0, 1, 0), (1, -2, 0)]) is None

    def test_index_scales_determinant(self):
        # |det M| = F * [V : W] for every RF matrix of the Frobenius number
        for gens in [(4, 10, 21, 23), (5, 19, 21, 22, 23), (3, 7, 8)]:
            sg = from_generators(gens)
            V = kernel_lattice(sg)
            for m in rf_matrices(sg, sg.frobenius):
                det = determinant(m)
                idx = _index(first_row_differences(m), V)
                if det == 0:
                    assert idx is None
                else:
                    assert abs(det) == sg.frobenius * idx

    def test_index_matches_maximal_minors(self):
        indices = []
        for gens in [(2, 5), (3, 7, 8), (6, 9, 20), (4, 10, 21, 23), (5, 19, 21, 22, 23),
                     (6, 25, 26, 27, 28, 29), (7, 15, 17, 19, 20, 23)]:
            sg = from_generators(gens)
            indices += [_minor_checked_index(sg, m) for m in iter_rf_matrices(sg, sg.frobenius)]
        assert len(indices) == 355
        assert indices.count(None) == 112  # rank drops are covered too

    @given(gen_sets(max_value=30, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_index_matches_maximal_minors_random(self, gens):
        sg = from_generators(gens)
        if sg.frobenius < 1:
            return
        for m in rf_matrices(sg, sg.frobenius)[:50]:
            _minor_checked_index(sg, m)


def _recorded_check(sg):
    """Run the Thm5.2 check on ``sg`` with its index, coordinate and
    determinant calls recorded; returns (problems, index of each RF(F)
    matrix, coordinate calls, determinant of each RF(F) matrix)."""
    indices, vectors, dets = [], [], []

    def recorded_index(coords):
        indices.append(lattice_index(coords))
        return indices[-1]

    def counted_coordinates(basis, vector):
        vectors.append(vector)
        return hnf_coordinates(basis, vector)

    def recorded_determinants(row_lists):
        for det in product_determinants(row_lists):
            dets.append(det)
            yield det

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "lattice_index", recorded_index)
        mp.setattr(arfrf.lattice, "hnf_coordinates", counted_coordinates)
        mp.setattr(verifier, "product_determinants", recorded_determinants)
        _, problems = verifier._check_index_vs_det(sg, None)
    return problems, indices, len(vectors), dets


class TestSweepIndex:
    """The Thm5.2 sweep reduces each later-row choice once per first-row choice
    and takes every matrix's index from those coordinates, and its determinants
    from the product tree; the per-matrix path (Bareiss for the determinant)
    is its oracle."""

    @pytest.mark.parametrize("gens, row_choices, matrices", [
        ((4, 10, 21, 23), 8, 9),
        ((5, 19, 21, 22, 23), 7, 4),
        ((5, 6, 9), 4, 2),  # not MED: row 1 of RF(13) has two choices
    ])
    def test_work_counts(self, gens, row_choices, matrices):
        sg = from_generators(gens)
        choices = rf_row_choices(sg, sg.frobenius)
        assert sum(map(len, choices)) == row_choices
        assert rf_matrix_count(sg, sg.frobenius) == matrices
        problems, indices, coordinate_calls, dets = _recorded_check(sg)
        assert problems == []
        first = len(choices[0])
        # each later-row choice once per first-row choice, none inside the matrix loop
        assert coordinate_calls == first * (row_choices - first)
        assert len(indices) == matrices  # one traced lattice_index per RF matrix
        assert len(dets) == matrices

    def test_matches_per_matrix_path_on_quick_grid(self):
        config = VerifyConfig(**parse_config_text(QUICK_CFG.read_text()))
        sources = verifier._sources(verifier.CLAIMS["Thm5.2-equiv"].grid(config))
        total = 0
        for _, sg, _, _ in verifier._instances(config, sources):
            problems, indices, _, dets = _recorded_check(sg)
            assert problems == []
            V = kernel_lattice(sg)
            matrices = list(iter_rf_matrices(sg, sg.frobenius))
            # Bareiss per matrix stays the oracle of the product-tree determinants
            assert dets == [determinant(m) for m in matrices]
            assert indices == [_index(first_row_differences(m), V) for m in matrices]
            # the cofactor minors of the first-row differences agree as well
            assert indices == [_minor_checked_index(sg, m) for m in matrices]
            total += len(matrices)
        assert total == 1516

    def test_matches_per_matrix_path_on_random_sets(self):
        # every swept instance is MED, so its row 1 has one choice; these
        # seeded generator sets reach several
        sets = matrices = several_first_rows = 0
        for gens in random_semigroups(300, seed=7):
            sg = from_generators(gens)
            if sg.frobenius < 1 or rf_matrix_count(sg, sg.frobenius) > 200:
                continue
            problems, indices, _, _ = _recorded_check(sg)
            assert problems == []
            V = kernel_lattice(sg)
            rf = iter_rf_matrices(sg, sg.frobenius)
            assert indices == [_index(first_row_differences(m), V) for m in rf]
            sets += 1
            matrices += len(indices)
            several_first_rows += len(rf_row_choices(sg, sg.frobenius)[0]) > 1
        assert (sets, matrices, several_first_rows) == (293, 1388, 19)

    def test_problems_when_determinants_disagree(self, monkeypatch):
        sg = from_generators((4, 10, 21, 23))
        rf = list(iter_rf_matrices(sg, 19))
        dets = [determinant(m) for m in rf]
        assert dets == [-19, -38, -19, 0, -19, -19, 19, 0, -19]
        def zeros(row_lists):  # one 0 per matrix of the product
            for _ in product(*row_lists):
                yield 0

        monkeypatch.setattr(verifier, "product_determinants", zeros)
        _, problems = verifier._check_index_vs_det(sg, None)
        pointwise = [{"matrix": m, "problem": f"index {abs(d) // 19} inconsistent with det 0"}
                     for m, d in zip(rf, dets) if d]
        witness = {"problem": "det witness False but index-1 witness True"}
        assert len(pointwise) == 7
        assert problems == [*pointwise, witness]


@st.composite
def _lattice_and_vector(draw):
    """A generating set, its dimension, and a vector that is often in its span."""
    dim = draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    gens = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=4))
    lams = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    noise = draw(st.one_of(st.just([0] * dim), st.lists(entry, min_size=dim, max_size=dim)))
    vector = [sum(l * g[j] for l, g in zip(lams, gens)) + noise[j] for j in range(dim)]
    return gens, dim, vector


@st.composite
def _generating_set_and_moves(draw):
    """A generating set, its dimension, and a random source for row moves."""
    dim = draw(st.integers(1, 5))
    entry = st.integers(-20, 20)
    gens = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=5))
    return gens, dim, draw(st.randoms(use_true_random=False))


def _rank_and_determinantal_divisor(rows, dim):
    """(r, gcd of the r x r minors) for the rank r of ``rows``, by cofactors.

    Row moves that keep the lattice keep both numbers, so a sublattice of the
    lattice of ``rows`` with the same two numbers is that lattice.
    """
    for r in range(min(len(rows), dim), 0, -1):
        g = 0
        for picked in combinations(rows, r):
            for cols in combinations(range(dim), r):
                g = gcd(g, cofactor_determinant([[row[c] for c in cols] for row in picked]))
        if g:
            return r, g
    return 0, 1


class TestHermiteNormalForm:
    @given(_generating_set_and_moves())
    @settings(max_examples=200, deadline=None)
    def test_against_the_definition(self, case):
        gens, dim, rng = case
        H = hermite_normal_form(gens, dim)
        # positive pivots in strictly increasing columns, entries above each
        # pivot in [0, pivot)
        pivot_cols = []
        for k, row in enumerate(H):
            col = next(c for c, x in enumerate(row) if x)
            assert row[col] > 0
            assert all(0 <= above[col] < row[col] for above in H[:k])
            pivot_cols.append(col)
        assert pivot_cols == sorted(set(pivot_cols))
        # the same lattice: every input vector has coordinates in H, and the
        # rank and the determinantal divisor agree
        assert all(hnf_coordinates(H, v) is not None for v in gens)
        assert _rank_and_determinantal_divisor(H, dim) == _rank_and_determinantal_divisor(gens, dim)
        # the form depends on the lattice only
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert hermite_normal_form(shuffled, dim) == H
        combos = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            combos.append([sum(c * v[j] for c, v in zip(coeffs, gens)) for j in range(dim)])
        assert hermite_normal_form([*gens, *combos], dim) == H
        moved = [list(v) for v in gens]  # a random unimodular matrix times gens
        for _ in range(rng.randint(0, 8) if len(moved) > 1 else 0):
            i, j = rng.sample(range(len(moved)), 2)
            c = rng.choice([-1, 1]) * rng.randint(1, 4)
            moved[i] = [a + c * b for a, b in zip(moved[i], moved[j])]
            if rng.random() < 0.5:
                moved[i], moved[j] = [-a for a in moved[j]], moved[i]
        assert hermite_normal_form(moved, dim) == H


class TestHnfCoordinates:
    @given(_lattice_and_vector())
    @settings(max_examples=300, deadline=None)
    def test_against_hermite_canonicity(self, case):
        # the Hermite form is canonical, so v lies in the lattice of B exactly
        # when adding v as a generator leaves the form unchanged
        gens, dim, vector = case
        basis = hermite_normal_form(gens, dim)
        coords = hnf_coordinates(basis, vector)
        assert (coords is not None) == (hermite_normal_form([*basis, vector], dim) == basis)
        if coords is not None:
            assert len(coords) == len(basis)
            assert [sum(c * row[j] for c, row in zip(coords, basis)) for j in range(dim)] == vector


_square_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 9]), min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestBareissDeterminant:
    """Orders 0-3 take the cofactor formula, orders 4 and up Bareiss elimination."""

    @given(_square_matrices)
    @example([])
    @example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    @settings(max_examples=400, deadline=None)
    def test_against_cofactor_expansion(self, rows):
        det = cofactor_determinant(rows)
        assert bareiss_determinant(rows) == det
        assert bareiss_determinant(tuple(map(tuple, rows))) == det

    @pytest.mark.parametrize("rows", [
        [[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2], [3, 4, 5]], [(1, 2), (3,)],
        [[1, 2, 3], [4, 5, 6], [7, 8]], [[1, 2, 3], [4, 5, 6], [7, 8, 9, 10]], [[1, 2, 3, 4]] * 3,
        [[1, 2], [3, 4], [5, 6], [7, 8]],
    ])
    def test_not_square(self, rows):
        # the shape check comes before any unpacking, whose errors say otherwise
        with pytest.raises(ValueError, match="^determinant needs a square matrix$"):
            bareiss_determinant(rows)

    @pytest.mark.parametrize("rows, det", [
        ([[0, 2, 0, 0], [3, 0, 0, 0], [0, 0, 0, 5], [0, 0, 7, 0]], 210),
        ([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], -1),  # zero second pivot
        ([[0, 1, 2, 3, 4], [0, 5, 6, 7, 8], [0, 1, 1, 1, 1], [0, 2, 3, 4, 5], [0, 9, 9, 9, 1]], 0),
    ])
    def test_zero_pivot_above_order_three(self, rows, det):
        assert bareiss_determinant(rows) == cofactor_determinant(rows) == det


@st.composite
def _row_lists(draw):
    """Row lists of an n x n product: 1-3 sparse choices for each row."""
    n = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    row = st.lists(entry, min_size=n, max_size=n)
    return draw(st.lists(st.lists(row, min_size=1, max_size=3), min_size=n, max_size=n))


class TestProductDeterminants:
    @given(_row_lists())
    @settings(max_examples=300, deadline=None)
    def test_against_bareiss_in_product_order(self, row_lists):
        expected = [bareiss_determinant(m) for m in product(*row_lists)]
        assert list(product_determinants(row_lists)) == expected

    def test_edge_cases(self):
        assert list(product_determinants([])) == [1]
        assert list(product_determinants([[[1, 0]], []])) == []
        assert list(product_determinants([[[0, 0], [1, 2]], [[0, 0]]])) == [0, 0]
        assert list(product_determinants([[[-5]]])) == [-5]
        assert list(product_determinants([[[2], [3]]])) == [2, 3]

    @pytest.mark.parametrize("row_lists", [
        [[[1, 0]], [[0, 1, 0]]],
        [[[1]], [[0]]],
        [[[1, 2]]],
    ])
    def test_not_square(self, row_lists):
        with pytest.raises(ValueError):
            product_determinants(row_lists)

    def test_half_consumed_walk_holds_nothing(self):
        class Rows(list):  # a list that takes weak references
            pass

        rows = Rows([[1, 0, 2], [0, 1, 1]])
        last = Rows([Rows([0, 0, 1]), Rows([1, 0, 0])])
        dets = product_determinants([rows, [[0, 1, 0], [1, 1, 1]], last])
        assert next(dets) == 1
        refs = weakref.ref(rows), weakref.ref(last), weakref.ref(last[0])
        gc.disable()
        try:
            del rows, last
            # the walk reads its own copies, the last row list's too
            assert [ref() for ref in refs] == [None] * 3
            assert next(dets) == -2
            ref = weakref.ref(dets)
            del dets
            # no reference cycle: the walk goes without the cyclic collector
            assert ref() is None
        finally:
            gc.enable()


def _minor_checked_index(sg, matrix):
    """Check the per-matrix index against the maximal-minor identity; return it.

    D = the (e-1) x e matrix of first-row differences. For every column k,
    |det(D without column k)| = [V:W] * n_k, since V is saturated with
    primitive normal vector (n_1, ..., n_e); all minors vanish exactly when W
    has lower rank. The minors come from cofactor expansion, not Bareiss.
    """
    diffs = [[a - b for a, b in zip(matrix[0], row)] for row in matrix[1:]]
    idx = _index(first_row_differences(matrix), kernel_lattice(sg))
    for k, n in enumerate(sg.generators):
        minor = cofactor_determinant([[x for c, x in enumerate(r) if c != k] for r in diffs])
        assert abs(minor) == (0 if idx is None else idx * n)
    return idx


class TestBinomials:
    def test_sign_convention(self):
        assert binomial_from_vector((-3, 1, -1, 1)) == ((3, 0, 1, 0), (0, 1, 0, 1))
        assert binomial_from_vector((2, -1, -1, 1)) == ((2, 0, 0, 1), (0, 1, 1, 0))

    def test_two_generator_relation(self):
        sg = from_generators([2, 5])
        [m] = rf_matrices(sg, 3)
        assert rf_relations(m) == [((5, 0), (0, 2))]

    def test_worked_example_relations(self):
        sg = from_generators([4, 10, 21, 23])
        rels = rf_relations(find_frobenius_det_witness(sg))
        assert set(rels) == {
            ((3, 0, 1, 0), (0, 1, 0, 1)),   # x1^3 x3 - x2 x4
            ((11, 0, 0, 0), (0, 0, 1, 1)),  # x1^11 - x3 x4
            ((9, 1, 0, 0), (0, 0, 0, 2)),   # x1^9 x2 - x4^2
            ((8, 1, 0, 0), (0, 0, 2, 0)),   # x1^8 x2 - x3^2
            ((6, 2, 0, 0), (0, 0, 1, 1)),   # x1^6 x2^2 - x3 x4
            ((2, 0, 0, 1), (0, 1, 1, 0)),   # x1^2 x4 - x2 x3
        }

    @given(gen_sets(max_value=40, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_relation_invariants(self, gens):
        sg = from_generators(gens)
        pf = sg.pseudo_frobenius()
        if not pf:
            return
        matrix = rf_matrices(sg, pf[-1])[0]
        rels = rf_relations(matrix)
        e = sg.embedding_dimension
        assert len(rels) == e * (e - 1) // 2
        for plus, minus in rels:
            assert all(p == 0 or m == 0 for p, m in zip(plus, minus))
            assert degree(sg, plus) == degree(sg, minus)
            assert plus >= minus


class TestGenericity:
    def test_examples(self):
        assert is_generic(from_generators([3, 7, 8])).generic
        assert not is_generic(from_generators([4, 10, 21, 23])).generic
        assert is_generic(from_generators([2, 5])).generic

    def test_column_clash_witness_checks_out(self):
        sg = from_generators([4, 10, 21, 23])
        verdict = is_generic(sg)
        assert verdict.column_clash is not None
        f, matrix, i, i2, j = verdict.column_clash
        assert is_rf_matrix(sg, f, matrix)
        assert matrix[i][j] == matrix[i2][j]
        # the induced relation misses column j, so it cannot have full support
        diff = [a - b for a, b in zip(matrix[i], matrix[i2])]
        plus, minus = binomial_from_vector(diff)
        assert plus[j] == minus[j] == 0

    def test_nonunique_witness(self):
        # PF(<4,5,6>) = {7} and RF(7) has two matrices, so the scan reports
        # nonuniqueness rather than a column clash
        sg = from_generators([4, 5, 6])
        verdict = is_generic(sg)
        assert not verdict.generic
        assert verdict.nonunique is not None
        f, m1, m2 = verdict.nonunique
        assert f == 7
        assert m1 != m2
        assert is_rf_matrix(sg, f, m1) and is_rf_matrix(sg, f, m2)
