from itertools import combinations
from math import gcd
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arfrf.lattice
from arfrf import verifier
from arfrf.errors import DimensionMismatch, NotSublattice
from arfrf.intmat import bareiss_determinant, hermite_normal_form, hnf_coordinates
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
from arfrf.verifier import VerifyConfig, cofactor_determinant, parse_config_text

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


class TestKernelLattice:
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
    return lattice_index(lattice_coordinates(vectors, V), len(V))


class TestLatticeIndex:
    def test_identity(self):
        V = kernel_lattice(from_generators([2, 5]))
        assert lattice_coordinates(V, V) == [(1,)]
        assert lattice_index([(1,)], 1) == 1

    def test_worked_example(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        W = rf_difference_lattice(find_frobenius_det_witness(sg))
        assert _index(W, V) == 1

    def test_doubled_rank_one_basis(self):
        V = kernel_lattice(from_generators([2, 5]))
        doubled = hermite_normal_form([(10, -4)], 2)
        assert lattice_coordinates(doubled, V) == [(2,)]
        assert lattice_index([(2,)], 1) == 2
        # a generating set with more vectors than the rank is not square
        assert lattice_coordinates([(10, -4), (5, -2)], V) == [(2,), (1,)]
        with pytest.raises(ValueError):
            lattice_index([(2,), (1,)], 1)

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
        assert lattice_index([], 0) == 1

    def test_infinite_index_on_rank_drop(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        sub = hermite_normal_form([V[0]], 4)
        assert lattice_index(lattice_coordinates(sub, V), len(V)) is None
        assert lattice_index([(1, 0, 0)], 3) is None
        # exactly rank(V) vectors, but linearly dependent
        a, b, _ = V
        dependent = [a, b, tuple(x - 2 * y for x, y in zip(a, b))]
        assert lattice_coordinates(dependent, V) == [(1, 0, 0), (0, 1, 0), (1, -2, 0)]
        assert lattice_index([(1, 0, 0), (0, 1, 0), (1, -2, 0)], 3) is None

    def test_index_scales_determinant(self):
        # |det M| = F * [V : W] for every RF matrix of the Frobenius number
        for gens in [(4, 10, 21, 23), (5, 19, 21, 22, 23), (3, 7, 8)]:
            sg = from_generators(gens)
            V = kernel_lattice(sg)
            for m in rf_matrices(sg, sg.frobenius):
                det = determinant(m)
                idx = _index(rf_difference_lattice(m), V)
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
    """Run the Thm5.2 check on ``sg`` with its index and coordinate calls
    recorded; returns (problems, index of each RF(F) matrix, coordinate calls)."""
    indices, vectors = [], []

    def recorded_index(coords, rank):
        indices.append(lattice_index(coords, rank))
        return indices[-1]

    def counted_coordinates(basis, vector):
        vectors.append(vector)
        return hnf_coordinates(basis, vector)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "lattice_index", recorded_index)
        mp.setattr(arfrf.lattice, "hnf_coordinates", counted_coordinates)
        _, problems = verifier._check_index_vs_det(sg, None)
    return problems, indices, len(vectors)


class TestSweepIndex:
    """The Thm5.2 sweep reduces each row choice once and builds every
    matrix's index from those coordinates; the per-matrix path is its oracle."""

    @pytest.mark.parametrize("gens, row_choices, matrices", [
        ((4, 10, 21, 23), 8, 9),
        ((5, 19, 21, 22, 23), 7, 4),
    ])
    def test_work_counts(self, gens, row_choices, matrices):
        sg = from_generators(gens)
        choices = rf_row_choices(sg, sg.frobenius)
        assert sum(map(len, choices)) == row_choices
        assert rf_matrix_count(sg, sg.frobenius) == matrices
        problems, indices, coordinate_calls = _recorded_check(sg)
        assert problems == []
        assert coordinate_calls == row_choices  # none inside the matrix loop
        assert len(indices) == matrices  # one traced lattice_index per RF matrix

    def test_matches_per_matrix_path_on_quick_grid(self):
        config = VerifyConfig(**parse_config_text(QUICK_CFG.read_text()))
        sources = verifier._sources(verifier.CLAIMS["Thm5.2-equiv"].grid(config))
        total = 0
        for _, sg, _, _ in verifier._instances(config, sources):
            problems, indices, _ = _recorded_check(sg)
            assert problems == []
            V = kernel_lattice(sg)
            matrices = list(iter_rf_matrices(sg, sg.frobenius))
            assert indices == [_index(first_row_differences(m), V) for m in matrices]
            # the cofactor minors of the first-row differences agree as well
            assert indices == [_minor_checked_index(sg, m) for m in matrices]
            total += len(matrices)
        assert total == 1516


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
