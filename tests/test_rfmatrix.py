import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arfrf.errors import NotPseudoFrobenius, TooManyMatrices
from arfrf.factorization import count_factorizations, factorization_vectors
from arfrf.rfmatrix import (
    check_sign_conjecture,
    column_zero_pair,
    determinant,
    find_frobenius_det_witness,
    iter_rf_matrices,
    rf_matrices,
    rf_matrix_count,
    rf_row_choices,
    sign_target,
)
from arfrf.semigroup import from_generators
from arfrf.verifier import cofactor_determinant

from test_semigroup import gen_sets

# the four RF(18) matrices of <5,19,21,22,23>, in canonical enumeration order
RF18 = [
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (8, 0, 0, -1, 0), (4, 0, 1, 0, -1)),
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (8, 0, 0, -1, 0), (0, 1, 0, 1, -1)),
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (0, 1, 1, -1, 0), (4, 0, 1, 0, -1)),
    ((-1, 0, 0, 0, 1), (3, -1, 0, 1, 0), (4, 1, -1, 0, 0), (0, 1, 1, -1, 0), (0, 1, 0, 1, -1)),
]


class TestEnumeration:
    def test_worked_example_full_list(self):
        sg = from_generators([5, 19, 21, 22, 23])
        matrices = rf_matrices(sg, 18)
        assert [m.entries for m in matrices] == RF18
        assert all(m.is_valid() for m in matrices)

    def test_two_generator_case(self):
        sg = from_generators([2, 5])
        [m] = rf_matrices(sg, 3)
        assert m.entries == ((-1, 1), (4, -1))

    def test_three_generator_case(self):
        sg = from_generators([3, 7, 8])
        [m] = rf_matrices(sg, 4)
        assert m.entries == ((-1, 1, 0), (1, -1, 1), (4, 0, -1))

    def test_count_is_row_product(self):
        sg = from_generators([5, 19, 21, 22, 23])
        for f in sg.pseudo_frobenius():
            n = rf_matrix_count(sg, f)
            assert n == len(rf_matrices(sg, f))

    def test_count_cross_checked_by_denumerant(self):
        sg = from_generators([5, 19, 21, 22, 23])
        for f in sg.pseudo_frobenius():
            product = 1
            for n in sg.generators:
                # coordinate i of a factorization of f + n_i is always 0
                # (f is not in S), so the plain denumerant counts row candidates
                product *= count_factorizations(sg, f + n)
            assert product == rf_matrix_count(sg, f)

    def test_worked_example_first_row(self):
        sg = from_generators([5, 19, 21, 22, 23])
        assert rf_row_choices(sg, 18)[0] == [(-1, 0, 0, 0, 1)]

    @given(gen_sets(max_value=25, max_size=5))
    @example((5, 19, 21, 22, 23))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_full_enumerator_in_order(self, gens):
        # row i is the full enumeration of f + n_i restricted to v[i] == 0,
        # with -1 written at i, in the enumerator's order
        sg = from_generators(gens)
        for f in sg.pseudo_frobenius():
            for i, (row, n) in enumerate(zip(rf_row_choices(sg, f), sg.generators)):
                expected = [
                    v[:i] + (-1,) + v[i + 1 :]
                    for v in factorization_vectors(sg.generators, f + n)
                    if v[i] == 0
                ]
                assert row == expected

    def test_rejects_non_pf(self):
        sg = from_generators([2, 5])
        with pytest.raises(NotPseudoFrobenius, match=r"PF = \(3,\)"):
            rf_matrices(sg, 4)

    def test_cap(self):
        sg = from_generators([5, 19, 21, 22, 23])
        with pytest.raises(TooManyMatrices):
            rf_matrices(sg, 18, max_matrices=3)
        assert len(rf_matrices(sg, 18, max_matrices=4)) == 4


class TestDeterminant:
    def test_paper_values(self):
        sg = from_generators([5, 19, 21, 22, 23])
        dets = [determinant(m) for m in rf_matrices(sg, 18)]
        assert dets[0] == 18

    def test_det_minus_19(self):
        sg = from_generators([4, 10, 21, 23])
        target = ((-1, 0, 0, 1), (2, -1, 1, 0), (10, 0, -1, 0), (8, 1, 0, -1))
        matches = [m for m in rf_matrices(sg, 19) if m.entries == target]
        assert len(matches) == 1
        assert determinant(matches[0]) == -19

    def test_two_by_two_formula(self):
        for s in range(2, 120, 2):
            assert determinant([[-1, 1], [s, -1]]) == 1 - s

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_bareiss_matches_cofactor_expansion(self, rows):
        assert determinant(rows) == cofactor_determinant(rows)

    def test_rf_matrices_against_cofactor(self):
        for gens in [(2, 5), (3, 7, 8), (4, 10, 21, 23), (5, 19, 21, 22, 23)]:
            sg = from_generators(gens)
            for f in sg.pseudo_frobenius():
                for m in rf_matrices(sg, f):
                    assert determinant(m) == cofactor_determinant(m.entries)


class TestDetWitness:
    def test_worked_example(self):
        sg = from_generators([5, 19, 21, 22, 23])
        witness = find_frobenius_det_witness(sg)
        assert witness.entries == RF18[0]
        assert determinant(witness) == 18

    def test_multiplicity_two_sweep(self):
        for s in range(2, 201, 2):
            sg = from_generators([2, s + 1])
            witness = find_frobenius_det_witness(sg)
            assert witness is not None
            assert abs(determinant(witness)) == s - 1

    def test_med_shape_m6(self):
        # frozen from the closed-form identity det = (-1)^(m-1) (s-1)
        sg = from_generators([6, 25, 26, 27, 28, 29])
        assert sg.frobenius == 23
        witness = find_frobenius_det_witness(sg)
        assert determinant(witness) == -23

    def test_naturals_has_no_witness(self):
        assert find_frobenius_det_witness(from_generators([1])) is None


class TestSignConjecture:
    def test_two_generators(self):
        sg = from_generators([2, 5])
        witness = check_sign_conjecture(sg)
        assert sign_target(sg) == -3
        assert witness is not None
        assert determinant(witness) == -3

    def test_worked_example(self):
        sg = from_generators([4, 10, 21, 23])
        witness = check_sign_conjecture(sg)
        assert sign_target(sg) == -19
        assert determinant(witness) == -19

    def test_med_sign(self):
        for m, s in [(6, 24), (7, 35), (8, 16)]:
            sg = from_generators([m, *range(s + 1, s + m)])
            witness = check_sign_conjecture(sg)
            assert sign_target(sg) == (-1) ** (m + 1) * (s - 1)
            assert determinant(witness) == sign_target(sg)


class TestColumnZeroPair:
    def test_worked_example(self):
        sg = from_generators([5, 19, 21, 22, 23])
        first = rf_matrices(sg, 18)[0]
        assert column_zero_pair(first) == (0, 3, 1)

    def test_dense_matrix_has_none(self):
        assert column_zero_pair([[-1, 1], [4, -1]]) is None

    def test_big_multiplicity_always_pairs(self):
        sg = from_generators([6, 25, 26, 27, 28, 29])
        count = 0
        for m in iter_rf_matrices(sg, sg.frobenius):
            count += 1
            assert column_zero_pair(m) is not None
        assert count >= 1
