import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arfrf import families, verifier
from arfrf.factorization import count_factorizations, factorization_vectors
from arfrf.rfmatrix import rf_row_choices
from arfrf.semigroup import from_generators
from arfrf.verifier import VerifyConfig, parse_config_text

from test_lattice import QUICK_CFG
from test_semigroup import gen_sets


def _reference_vectors(gens, value):
    """The earlier DFS: generators in the caller's order, largest multiple
    first, last coefficient by divmod. Its output order is the contract."""
    last = len(gens) - 1
    out = []
    coeffs = [0] * len(gens)

    def descend(idx, rem):
        g = gens[idx]
        if idx == last:
            q, r = divmod(rem, g)
            if r == 0:
                coeffs[idx] = q
                out.append(tuple(coeffs))
            return
        for c in range(rem // g, -1, -1):
            coeffs[idx] = c
            descend(idx + 1, rem - c * g)

    descend(0, value)
    return out


def _reference_rows(sg, f):
    """RF(f)'s row lists built from ``_reference_vectors``."""
    gens = sg.generators
    return [
        [v[:i] + (-1,) + v[i:] for v in _reference_vectors(gens[:i] + gens[i + 1 :], f + n)]
        for i, n in enumerate(gens)
    ]


def _count(gens, value):
    """Number of factorizations of ``value`` over ``gens`` (repeats allowed)."""
    ways = [1] + [0] * value
    for g in gens:
        for v in range(g, value + 1):
            ways[v] += ways[v - g]
    return ways[value]


# up to six distinct generators below 60, in any order
unsorted_gens = st.lists(st.integers(1, 59), min_size=1, max_size=6, unique=True).flatmap(st.permutations)
# up to six generators, repeats allowed, many of them multiples of one d, so
# the two smallest often share a factor or one divides the other
shared_factor_gens = st.integers(1, 9).flatmap(
    lambda d: st.lists(st.one_of(st.integers(1, 59), st.integers(1, 8).map(lambda k: d * k)),
                       min_size=1, max_size=6)
)


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
        with pytest.raises(ValueError):
            count_factorizations((2, 5), -1)

    def test_cost_follows_the_large_generators(self):
        # 10,000 vectors, but a search with 2 outermost would try each of
        # 100,001 multiples of 2 against every multiple of 1001
        t0 = time.perf_counter()
        vectors = factorization_vectors((2, 1001, 1003), 200_000)
        elapsed = time.perf_counter() - t0
        assert len(vectors) == 10_000
        assert vectors[0] == (100_000, 0, 0)
        assert elapsed < 1.0, f"took {elapsed:.2f} s"

    def test_cost_follows_the_output_for_the_pair(self):
        # 11 vectors; a search that tried every multiple of 1000033 against
        # 1000003 would loop about 10**7 times
        a, b = 1000003, 1000033
        t0 = time.perf_counter()
        vectors = factorization_vectors((a, b), 10 * a * b)
        elapsed = time.perf_counter() - t0
        assert vectors == [(10 * b - k * b, k * a) for k in range(11)]
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


class TestPairCongruence:
    def test_one_generator(self):
        assert factorization_vectors((7,), 21) == [(3,)]
        assert factorization_vectors((7,), 20) == []
        assert factorization_vectors((7,), 0) == [(0,)]

    def test_value_zero_with_a_shared_factor(self):
        assert factorization_vectors((4, 6), 0) == [(0, 0)]
        assert factorization_vectors((9, 4, 6), 0) == [(0, 0, 0)]

    def test_remainder_the_gcd_does_not_divide(self):
        # gcd(6, 4) = 2: 9 is odd; over (9, 6, 4), 11 leaves 11 or 2, and 2 is
        # even but below both
        assert factorization_vectors((4, 6), 9) == []
        assert factorization_vectors((9, 6, 4), 11) == []
        assert factorization_vectors((9, 6, 4), 13) == [(1, 0, 1)]

    def test_step_one_when_the_smaller_divides_the_larger(self):
        assert factorization_vectors((12, 4), 24) == [(2, 0), (1, 3), (0, 6)]
        assert factorization_vectors((5, 5), 10) == [(2, 0), (1, 1), (0, 2)]
        assert factorization_vectors((3, 12, 6), 15) == [(5, 0, 0), (3, 0, 1), (1, 1, 0), (1, 0, 2)]

    @given(shared_factor_gens, st.integers(0, 300))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_with_repeats_and_shared_factors(self, gens, value):
        gens = tuple(gens)
        assume(_count(gens, value) <= 20_000)
        assert factorization_vectors(gens, value) == _reference_vectors(gens, value)


class TestOrder:
    def test_unsorted_generators_keep_caller_order(self):
        assert factorization_vectors((8, 3), 24) == [(3, 0), (0, 8)]

    def test_worked_example_row_lists(self):
        sg = from_generators([5, 19, 21, 22, 23])
        expected = {
            14: [[(-1, 1, 0, 0, 0)], [(2, -1, 0, 0, 1)], [(7, 0, -1, 0, 0)], [(3, 0, 1, -1, 0)],
                 [(3, 0, 0, 1, -1)]],
            16: [[(-1, 0, 1, 0, 0)], [(7, -1, 0, 0, 0)], [(3, 0, -1, 1, 0)],
                 [(3, 0, 0, -1, 1), (0, 2, 0, -1, 0)], [(4, 1, 0, 0, -1)]],
            17: [[(-1, 0, 0, 1, 0)], [(3, -1, 1, 0, 0)], [(3, 0, -1, 0, 1), (0, 2, -1, 0, 0)],
                 [(4, 1, 0, -1, 0)], [(8, 0, 0, 0, -1), (0, 1, 1, 0, -1)]],
            18: [[(-1, 0, 0, 0, 1)], [(3, -1, 0, 1, 0)], [(4, 1, -1, 0, 0)],
                 [(8, 0, 0, -1, 0), (0, 1, 1, -1, 0)], [(4, 0, 1, 0, -1), (0, 1, 0, 1, -1)]],
        }
        assert sg.pseudo_frobenius() == tuple(expected)
        for f, rows in expected.items():
            assert rf_row_choices(sg, f) == rows == _reference_rows(sg, f)

    def test_row_lists_match_reference_on_quick_grid(self):
        config = VerifyConfig(**parse_config_text(QUICK_CFG.read_text()))
        sources = [*families.M_LE_5_VARIANTS, "med", "closure", "random"]
        instances = rows = 0
        for _, sg, _, _ in verifier._instances(config, sources):
            instances += 1
            for f in sg.pseudo_frobenius():
                assert rf_row_choices(sg, f) == _reference_rows(sg, f), (sg.generators, f)
                rows += 1
        assert (instances, rows) == (225, 695)

    @given(unsorted_gens, st.integers(0, 300))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_permuted_generators(self, gens, value):
        gens = tuple(gens)
        assert factorization_vectors(gens, value) == _reference_vectors(gens, value)


class TestCounting:
    def test_examples(self):
        ways = count_factorizations((2, 5), 10)
        assert len(ways) == 11
        assert (ways[10], ways[0], ways[3]) == (2, 1, 0)
        assert count_factorizations((2, 5), 0) == [1]

    @given(gen_sets(max_value=30, max_size=5), st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_counter_matches_enumerator(self, gens, value):
        """One table holds the denumerant of every v <= value."""
        gens = from_generators(gens).generators
        ways = count_factorizations(gens, value)
        assert ways == [len(factorization_vectors(gens, v)) for v in range(value + 1)]

    @given(gen_sets(max_value=30, max_size=5), st.integers(0, 150))
    @settings(max_examples=60, deadline=None)
    def test_dot_product_invariant(self, gens, value):
        sg = from_generators(gens)
        for v in factorization_vectors(sg.generators, value):
            assert sum(c * g for c, g in zip(v, sg.generators)) == value
            assert all(c >= 0 for c in v)
