import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arfrf import rfmatrix
from arfrf.errors import NotPseudoFrobenius
from arfrf.factorization import count_factorizations, factorization_vectors
from arfrf.rfmatrix import (
    check_sign_conjecture,
    column_zero_pair,
    determinant,
    find_frobenius_det_witness,
    is_rf_matrix,
    iter_rf_matrices,
    rf_matrices,
    rf_matrix_count,
    rf_row_choices,
    rf_rows,
    sign_target,
)
from arfrf.lattice import is_generic
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
        assert matrices == RF18
        assert all(is_rf_matrix(sg, 18, m) for m in matrices)

    def test_two_generator_case(self):
        sg = from_generators([2, 5])
        [m] = rf_matrices(sg, 3)
        assert m == ((-1, 1), (4, -1))

    def test_three_generator_case(self):
        sg = from_generators([3, 7, 8])
        [m] = rf_matrices(sg, 4)
        assert m == ((-1, 1, 0), (1, -1, 1), (4, 0, -1))

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
                product *= count_factorizations(sg.generators, f + n)[f + n]
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

    @pytest.mark.parametrize(
        "gens, f, pf",
        [((2, 5), 4, (3,)), ((2, 5), 0, (3,)), ((2, 5), 1, (3,)), ((2, 5), -2, (3,)), ((1,), -1, ())],
        ids=["4", "0", "1", "-2", "N"],
    )
    def test_rejects_non_pf(self, gens, f, pf):
        message = f"{f} is not a pseudo-Frobenius number; PF = {list(pf)}"
        with pytest.raises(NotPseudoFrobenius, match=f"^{re.escape(message)}$"):
            rf_matrices(from_generators(gens), f)


class TestRowCache:
    """RF(f)'s row lists are built once per semigroup object and kept on it."""

    def test_built_once_per_semigroup_object(self, monkeypatch):
        built = []

        def counted(sg, f):
            built.append(f)
            return rf_row_choices(sg, f)

        monkeypatch.setattr(rfmatrix, "rf_row_choices", counted)
        sg = from_generators([4, 10, 21, 23])
        for f in sg.pseudo_frobenius():
            assert rf_matrix_count(sg, f) == len(rf_matrices(sg, f))
        assert find_frobenius_det_witness(sg) == check_sign_conjecture(sg)
        assert not is_generic(sg).generic
        assert sorted(built) == [6, 17, 19]
        # the cache is per object: an equal semigroup built again builds again
        again = from_generators([4, 10, 21, 23])
        assert again == sg and hash(again) == hash(sg)
        assert find_frobenius_det_witness(again) == find_frobenius_det_witness(sg)
        assert sorted(built) == [6, 17, 19, 19]

    def test_shared_lists_equal_fresh_ones(self):
        sg = from_generators([5, 19, 21, 22, 23])
        for f in sg.pseudo_frobenius():
            assert rf_rows(sg, f) is rf_rows(sg, f)
            assert rf_rows(sg, f) == rf_row_choices(sg, f)

    def test_non_pf_is_not_cached(self):
        sg = from_generators([4, 10, 21, 23])
        for _ in range(2):
            with pytest.raises(NotPseudoFrobenius):
                rf_rows(sg, 5)
        assert 5 not in sg.rf_row_cache

    def test_cache_stays_out_of_equality_and_repr(self):
        sg = from_generators([2, 5])
        rf_rows(sg, 3)
        assert sg == from_generators([2, 5]) and "rf_row_cache" not in repr(sg)


def _with_row(matrix, i, row):
    return matrix[:i] + (row,) + matrix[i + 1 :]


class TestIsRFMatrix:
    def test_holds_for_every_enumerated_matrix(self):
        sg = from_generators([5, 19, 21, 22, 23])
        for f in sg.pseudo_frobenius():
            assert all(is_rf_matrix(sg, f, m) for m in iter_rf_matrices(sg, f))

    # each bad input below breaks exactly one condition; the others still hold
    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(RF18[0][:-1], id="row-count"),
            pytest.param(RF18[0] + ((0, 0, 0, 0, 0),), id="row-count-over"),
            pytest.param(_with_row(RF18[0], 4, (4, 0, 1, 0)), id="row-length"),
            pytest.param(_with_row(RF18[0], 0, (-4, 2, 0, 0, 0)), id="diagonal"),
            pytest.param(_with_row(RF18[0], 0, (-1, -1, 2, 0, 0)), id="negative-off-diagonal"),
            pytest.param(_with_row(RF18[0], 0, (-1, 0, 0, 0, 2)), id="degree"),
        ],
    )
    def test_rejects(self, rows):
        sg = from_generators([5, 19, 21, 22, 23])
        assert not is_rf_matrix(sg, 18, rows)

    def test_rejects_other_pf_element(self):
        sg = from_generators([5, 19, 21, 22, 23])
        assert is_rf_matrix(sg, 18, RF18[0])
        assert not is_rf_matrix(sg, 17, RF18[0])


class TestDeterminant:
    def test_paper_values(self):
        sg = from_generators([5, 19, 21, 22, 23])
        dets = [determinant(m) for m in rf_matrices(sg, 18)]
        assert dets[0] == 18

    def test_det_minus_19(self):
        sg = from_generators([4, 10, 21, 23])
        target = ((-1, 0, 0, 1), (2, -1, 1, 0), (10, 0, -1, 0), (8, 1, 0, -1))
        matches = [m for m in rf_matrices(sg, 19) if m == target]
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
                    assert determinant(m) == cofactor_determinant(m)


class TestDetWitness:
    def test_worked_example(self):
        sg = from_generators([5, 19, 21, 22, 23])
        witness = find_frobenius_det_witness(sg)
        assert witness == RF18[0]
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
