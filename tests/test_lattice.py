from math import gcd
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfrf.errors import DimensionMismatch, NotSublattice
from arfrf.intmat import bareiss_determinant, hermite_normal_form, hnf_coordinates
from arfrf.lattice import (
    Binomial,
    IntegerLattice,
    binomial_from_vector,
    degree,
    is_generic,
    first_row_differences,
    kernel_lattice,
    lattice_index,
    rf_difference_lattice,
    rf_relations,
    row_differences,
)
from arfrf.rfmatrix import find_frobenius_det_witness, is_rf_matrix, iter_rf_matrices, rf_matrices
from arfrf.semigroup import from_generators
from arfrf.verifier import cofactor_determinant

from test_semigroup import gen_sets

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
        assert kernel_lattice(from_generators([2, 5])).basis == ((5, -2),)
        assert kernel_lattice(from_generators([2, 3])).basis == ((3, -2),)

    def test_worked_example(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        assert V.rank == 3
        assert all(degree(sg, v) == 0 for v in V.basis)
        assert _maximal_minor_gcd(V.basis, 4) == 1

    @given(gen_sets(max_value=50, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_saturation(self, gens):
        sg = from_generators(gens)
        V = kernel_lattice(sg)
        assert V.rank == sg.embedding_dimension - 1
        assert all(degree(sg, v) == 0 for v in V.basis)
        if V.rank:
            assert _maximal_minor_gcd(V.basis, sg.embedding_dimension) == 1


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
        assert lattice_index(W.basis, V) == 1

    def test_reduced_basis_spans_all_pairs(self):
        sg = from_generators([5, 19, 21, 22, 23])
        for matrix in rf_matrices(sg, 18):
            W = rf_difference_lattice(matrix)
            assert all(W.contains(d) for d in row_differences(matrix))

    def test_basis_equals_hermite_form_of_all_pairs(self):
        # the stored basis comes from the first-row differences; it must be
        # identical to the Hermite form of the full pairwise generating set
        from arfrf.intmat import hermite_normal_form

        for gens in [(4, 10, 21, 23), (5, 19, 21, 22, 23), (6, 25, 26, 27, 28, 29)]:
            sg = from_generators(gens)
            for f in sg.pseudo_frobenius():
                for matrix in rf_matrices(sg, f):
                    W = rf_difference_lattice(matrix)
                    full = hermite_normal_form(row_differences(matrix), W.dim)
                    assert W.basis == full


class TestLatticeIndex:
    def test_identity(self):
        V = kernel_lattice(from_generators([2, 5]))
        assert lattice_index(V.basis, V) == 1

    def test_worked_example(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        W = rf_difference_lattice(find_frobenius_det_witness(sg))
        assert lattice_index(W.basis, V) == 1

    def test_doubled_rank_one_basis(self):
        V = kernel_lattice(from_generators([2, 5]))
        doubled = IntegerLattice.from_generators([(10, -4)], 2)
        assert lattice_index(doubled.basis, V) == 2
        # a generating set with more vectors than the rank is not square
        with pytest.raises(ValueError):
            lattice_index([(10, -4), (5, -2)], V)

    def test_not_sublattice(self):
        V = kernel_lattice(from_generators([2, 5]))
        alien = IntegerLattice.from_generators([(1, 0)], 2)
        with pytest.raises(NotSublattice):
            lattice_index(alien.basis, V)
        with pytest.raises(NotSublattice):
            lattice_index([(4, -2)], V)
        with pytest.raises(DimensionMismatch):
            lattice_index([(5, -2, 0)], V)

    def test_infinite_index_on_rank_drop(self):
        sg = from_generators([4, 10, 21, 23])
        V = kernel_lattice(sg)
        sub = IntegerLattice.from_generators([V.basis[0]], 4)
        assert lattice_index(sub.basis, V) is None
        # exactly rank(V) vectors, but linearly dependent
        a, b, _ = V.basis
        dependent = [a, b, tuple(x - 2 * y for x, y in zip(a, b))]
        assert lattice_index(dependent, V) is None

    def test_index_scales_determinant(self):
        # |det M| = F * [V : W] for every RF matrix of the Frobenius number
        for gens in [(4, 10, 21, 23), (5, 19, 21, 22, 23), (3, 7, 8)]:
            sg = from_generators(gens)
            V = kernel_lattice(sg)
            for m in rf_matrices(sg, sg.frobenius):
                from arfrf.rfmatrix import determinant

                det = determinant(m)
                idx = lattice_index(rf_difference_lattice(m).basis, V)
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
    """Check lattice_index against the maximal-minor identity; return the index.

    D = the (e-1) x e matrix of first-row differences. For every column k,
    |det(D without column k)| = [V:W] * n_k, since V is saturated with
    primitive normal vector (n_1, ..., n_e); all minors vanish exactly when W
    has lower rank. The minors come from cofactor expansion, not Bareiss.
    """
    diffs = [[a - b for a, b in zip(matrix[0], row)] for row in matrix[1:]]
    idx = lattice_index(first_row_differences(matrix), kernel_lattice(sg))
    for k, n in enumerate(sg.generators):
        minor = cofactor_determinant([[x for c, x in enumerate(r) if c != k] for r in diffs])
        assert abs(minor) == (0 if idx is None else idx * n)
    return idx


class TestBinomials:
    def test_sign_convention(self):
        b = binomial_from_vector((-3, 1, -1, 1))
        assert (b.plus, b.minus) == ((3, 0, 1, 0), (0, 1, 0, 1))
        b = binomial_from_vector((2, -1, -1, 1))
        assert (b.plus, b.minus) == ((2, 0, 0, 1), (0, 1, 1, 0))

    def test_two_generator_relation(self):
        sg = from_generators([2, 5])
        [m] = rf_matrices(sg, 3)
        assert rf_relations(m) == [Binomial(plus=(5, 0), minus=(0, 2))]

    def test_worked_example_relations(self):
        sg = from_generators([4, 10, 21, 23])
        rels = rf_relations(find_frobenius_det_witness(sg))
        monomial_pairs = {(b.plus, b.minus) for b in rels}
        assert monomial_pairs == {
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
        for b in rels:
            assert all(p == 0 or m == 0 for p, m in zip(b.plus, b.minus))
            assert degree(sg, b.plus) == degree(sg, b.minus)
            assert b.plus >= b.minus


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
        b = binomial_from_vector(diff)
        assert not b.has_full_support()
        assert j not in b.support

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
