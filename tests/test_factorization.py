import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfrf.factorization import count_factorizations, factorization_vectors
from arfrf.semigroup import from_generators

from test_semigroup import gen_sets


class TestEnumeration:
    def test_parity_forces_single_solution(self):
        sg = from_generators([2, 5])
        assert factorization_vectors(sg.generators, 8) == [(4, 0)]

    def test_zero_has_the_zero_vector(self):
        for gens in [(2, 5), (5, 19, 21, 22, 23), (1,)]:
            sg = from_generators(gens)
            assert factorization_vectors(sg.generators, 0) == [(0,) * sg.embedding_dimension]

    def test_no_representation_is_empty(self):
        assert factorization_vectors(from_generators([2, 5]).generators, 3) == []

    def test_order_is_lexicographically_decreasing(self):
        sg = from_generators([2, 5])
        vectors = factorization_vectors(sg.generators, 20)
        assert vectors == sorted(vectors, reverse=True)
        assert vectors[0] == (10, 0)

    def test_repeat_calls_identical(self):
        sg = from_generators([3, 7, 8])
        assert factorization_vectors(sg.generators, 50) == factorization_vectors(sg.generators, 50)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            factorization_vectors(from_generators([2, 5]).generators, -1)


class TestCounting:
    def test_examples(self):
        sg = from_generators([2, 5])
        assert count_factorizations(sg, 10) == 2
        assert count_factorizations(sg, 0) == 1
        assert count_factorizations(sg, 3) == 0

    @given(gen_sets(max_value=30, max_size=5), st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_counter_matches_enumerator(self, gens, value):
        sg = from_generators(gens)
        assert len(factorization_vectors(sg.generators, value)) == count_factorizations(sg, value)

    @given(gen_sets(max_value=30, max_size=5), st.integers(0, 150))
    @settings(max_examples=60, deadline=None)
    def test_dot_product_invariant(self, gens, value):
        sg = from_generators(gens)
        for v in factorization_vectors(sg.generators, value):
            assert sum(c * g for c, g in zip(v, sg.generators)) == value
            assert all(c >= 0 for c in v)
