import copy
import pickle
import random
from collections import Counter
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arfrf import families, semigroup, verifier
from arfrf.errors import NotNumerical
from arfrf.semigroup import NumericalSemigroup, from_generators
from arfrf.verifier import VerifyConfig, _reach_table, oracle_membership, oracle_pf


def gen_sets(max_value=40, max_size=5):
    """Random generator sets with gcd 1 (append a coprime when needed)."""

    def fix(gens):
        gens = sorted(set(gens))
        from math import gcd
        from functools import reduce

        g = reduce(gcd, gens)
        if g != 1:
            gens.append(g + 1)
        return tuple(sorted(set(gens)))

    return st.lists(
        st.integers(min_value=2, max_value=max_value), min_size=2, max_size=max_size
    ).map(fix)


class TestConstruction:
    def test_worked_example(self):
        sg = from_generators({4, 10, 21, 23})
        assert sg.generators == (4, 10, 21, 23)
        assert sg.multiplicity == 4
        assert sg.frobenius == 19
        assert sg.conductor == 20

    def test_redundant_generators_removed(self):
        sg = from_generators([2, 3, 4])
        assert sg.generators == (2, 3)
        assert sg.frobenius == 1

    def test_minimal_system_matches_definition(self):
        """A kept generator is no sum of two nonzero members; a dropped one is."""
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            gens = sorted({rng.randint(2, 80) for _ in range(rng.randint(2, 8))})
            if reduce(gcd, gens) != 1:
                continue
            member = [oracle_membership(gens, a) for a in range(gens[-1] + 1)]
            expected = tuple(
                g for g in gens if not any(member[a] and member[g - a] for a in range(1, g))
            )
            assert from_generators(gens).generators == expected, gens
            checked += 1

    def test_mcnugget(self):
        gens = (6, 9, 20)
        table = _reach_table(list(gens), 6 * 9 * 20)
        expected = max(n for n in range(6 * 9 * 20) if not table[n])
        assert expected == 43
        assert from_generators(gens).frobenius == 43

    def test_unsorted_duplicated_input(self):
        assert from_generators([23, 4, 10, 4, 21]).generators == (4, 10, 21, 23)

    def test_constructor_derives_the_other_four_fields(self):
        sg = NumericalSemigroup((4, 10, 21, 23), (0, 21, 10, 23))
        assert (sg.multiplicity, sg.embedding_dimension, sg.frobenius, sg.conductor) == (
            4, 4, 19, 20)
        assert repr(sg) == repr(from_generators([4, 10, 21, 23]))
        naturals = NumericalSemigroup((1,), (0,))
        assert (naturals.multiplicity, naturals.embedding_dimension, naturals.frobenius,
                naturals.conductor) == (1, 1, -1, 0)
        assert repr(naturals) == repr(from_generators([1]))

    def test_naturals(self):
        sg = from_generators([1])
        assert sg.frobenius == -1
        assert sg.conductor == 0
        assert sg.genus() == 0
        assert sg.pseudo_frobenius() == ()

    def test_gcd_failure_names_gcd(self):
        with pytest.raises(NotNumerical, match="gcd 2"):
            from_generators([4, 6])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            from_generators([0, 3])
        with pytest.raises(ValueError):
            from_generators([])

    @pytest.mark.parametrize("gens", [[2.5, 3], [4.0, 6, 9], ["4", 6, 9]])
    def test_rejects_non_integral_generators(self, gens):
        # int() would truncate 2.5 to 2 and parse "4"; no generator is converted
        with pytest.raises(TypeError):
            from_generators(gens)


class TestRecordSemantics:
    SG = from_generators([5, 19, 21, 22, 23])

    def test_repr_shows_five_fields(self):
        assert repr(self.SG) == (
            "NumericalSemigroup(generators=(5, 19, 21, 22, 23), multiplicity=5, "
            "embedding_dimension=5, frobenius=18, conductor=19)"
        )

    def test_equality_and_hash_read_generators_only(self):
        same = from_generators([23, 22, 21, 19, 5, 24])
        assert same == self.SG and hash(same) == hash(self.SG)
        assert self.SG != from_generators([5, 19, 21, 22])
        assert self.SG != self.SG.generators
        assert len({self.SG, same}) == 1

    def test_row_cache_outside_equality_and_hash(self):
        sg, fresh = from_generators([5, 19, 21, 22, 23]), from_generators([5, 19, 21, 22, 23])
        sg.rf_row_cache[18] = ["rows"]
        assert sg.pseudo_frobenius() == (14, 16, 17, 18) and sg.pf_cache == (14, 16, 17, 18)
        assert sg == fresh and hash(sg) == hash(fresh) and repr(sg) == repr(fresh)
        assert fresh.rf_row_cache == {} and fresh.pf_cache is None

    @pytest.mark.parametrize("name", ["generators", "frobenius", "apery_table", "pf_cache",
                                      "rf_row_cache"])
    def test_assignment_and_deletion_raise(self, name):
        sg = from_generators([5, 19, 21, 22, 23])
        with pytest.raises(AttributeError):
            setattr(sg, name, ())
        with pytest.raises(AttributeError):
            delattr(sg, name)
        assert sg == self.SG and repr(sg) == repr(self.SG)

    @pytest.mark.parametrize("clone", [lambda sg: pickle.loads(pickle.dumps(sg)), copy.copy,
                                       copy.deepcopy])
    def test_pickle_and_copy_round_trips(self, clone):
        sg = from_generators([5, 19, 21, 22, 23])
        sg.rf_row_cache[18] = ["rows"]
        pf = sg.pseudo_frobenius()
        twin = clone(sg)
        assert twin == sg and repr(twin) == repr(sg)
        assert twin.apery_table == sg.apery_table
        assert twin.rf_row_cache == {} and twin.pf_cache is None
        assert twin.pseudo_frobenius() == pf


class TestMembership:
    def test_examples(self):
        assert not from_generators([2, 5]).contains(3)
        assert not from_generators([5, 19, 21, 22, 23]).contains(18)
        sg = from_generators([6, 9, 20])
        table = _reach_table([6, 9, 20], 44)
        assert table[44] is True
        assert sg.contains(44)

    def test_negative(self):
        assert not from_generators([2, 5]).contains(-2)

    @given(gen_sets())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_reachability_oracle(self, gens):
        sg = from_generators(gens)
        top = sg.conductor + 2 * sg.generators[-1]
        table = _reach_table(list(gens), top)
        assert all(sg.contains(n) == table[n] for n in range(top + 1))


class TestApery:
    def test_examples(self):
        assert from_generators([2, 5]).apery_table == (0, 5)
        assert from_generators([3, 7, 8]).apery_table == (0, 7, 8)
        assert from_generators([1]).apery_table == (0,)
        # 13 = -1 mod 7: each residue is reached only after the one before it
        assert from_generators([7, 13]).apery_table == (0, 78, 65, 52, 39, 26, 13)
        # gcd(6, 9) = 3: the walk with 9 covers three residue classes mod 3
        assert from_generators([6, 9, 20]).apery_table == (0, 49, 20, 9, 40, 29)

    def test_residue_structure(self):
        sg = from_generators([5, 19, 21, 22, 23])
        ap = sg.apery_table
        for i, w in enumerate(ap):
            assert w % 5 == i
            assert sg.contains(w)
            assert not sg.contains(w - 5)

    @given(gen_sets())
    @settings(max_examples=50, deadline=None)
    def test_table_invariants(self, gens):
        sg = from_generators(gens)
        m = sg.multiplicity
        for i, w in enumerate(sg.apery_table):
            assert w % m == i
            assert sg.contains(w)
            assert not sg.contains(w - m)
        assert max(sg.apery_table) == sg.frobenius + m


class TestPseudoFrobenius:
    def test_examples(self):
        assert from_generators([5, 19, 21, 22, 23]).pseudo_frobenius() == (
            14,
            16,
            17,
            18,
        )
        assert from_generators([2, 5]).pseudo_frobenius() == (3,)
        # <6,9,20> is symmetric (genus 22 = (F+1)/2), so its type is 1
        assert oracle_pf((6, 9, 20)) == (43,)
        assert from_generators([6, 9, 20]).pseudo_frobenius() == (43,)

    def test_max_element_is_frobenius(self):
        for gens in [(2, 5), (3, 7, 8), (6, 9, 20), (4, 10, 21, 23)]:
            sg = from_generators(gens)
            assert sg.pseudo_frobenius()[-1] == sg.frobenius

    @given(gen_sets())
    @settings(max_examples=50, deadline=None)
    def test_apery_route_matches_definitional_scan(self, gens):
        sg = from_generators(gens)
        pf = oracle_pf(gens)
        assert sg.pseudo_frobenius() == pf
        m = sg.multiplicity
        for f in range(-m - 1, sg.frobenius + m + 2):
            assert sg.is_pseudo_frobenius(f) == (f in pf), f


class TestAperyRules:
    """PF(S) and MED as ``pseudo_frobenius`` and ``is_med`` read them, held to
    the definition and to the Apéry characterization."""

    @staticmethod
    def _assert_rules_hold(sg):
        pf = tuple(f for f in range(1, sg.frobenius + 1) if sg.is_pseudo_frobenius(f))
        assert sg.pseudo_frobenius() == pf, sg
        # MED iff the nonzero Apéry entries are the generators other than m
        assert sg.is_med() == (set(sg.apery_table) == {0, *sg.generators[1:]}), sg

    def test_match_their_definitions_on_the_default_grid(self):
        # every multiplicity <= 5 variant up to s = 200, every med shape m = 6..10
        # with s = m..10m, the 100 Arf-closure samples and the 1,000 random sets,
        # at seed 1729
        sources = [*families.M_LE_5_VARIANTS, "med", "closure", "random"]
        counts = Counter()
        for source, sg, _, _ in verifier._instances(VerifyConfig(seed=1729), sources):
            self._assert_rules_hold(sg)
            counts[source if source in ("closure", "random") else "family"] += 1
        assert counts == {"family": 3066, "closure": 100, "random": 1000}
        self._assert_rules_hold(from_generators([1]))  # S = N: 0 is the only Apéry entry

    def test_at_scale(self):
        # <a, a + 1> is symmetric with Frobenius number ab - a - b, far above the
        # default grid; its e = 2 is far below m
        a, b = 10**5, 10**5 + 1
        sg = from_generators([a, b])
        assert sg.pseudo_frobenius() == (a * b - a - b,)
        assert not sg.is_med()


class TestMedArf:
    def test_is_med(self):
        assert from_generators([4, 10, 21, 23]).is_med()
        assert from_generators([2, 3]).is_med()
        assert not from_generators([6, 9, 20]).is_med()

    def test_is_arf(self):
        assert from_generators([3, 5, 7]).is_arf()
        assert from_generators([6, 25, 26, 27, 28, 29]).is_arf()
        assert not from_generators([4, 6, 9]).is_arf()

    @staticmethod
    def _arf_by_translates(sg):
        """Independent route: S is Arf iff every upper translate
        {s - x : s in S, s >= x} (x a nonzero element below c) is additively
        closed."""
        c = sg.conductor
        top = 2 * c + 2 * sg.generators[-1]
        members = [n for n in range(top + 1) if sg.contains(n)]
        for x in (m for m in members if 0 < m < c):
            shifted = {s - x for s in members if s >= x}
            for a in shifted:
                for b in shifted:
                    if a + b <= c and a + b not in shifted:
                        return False
        return True

    @given(gen_sets(max_value=30, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_arf_matches_translate_characterization(self, gens):
        sg = from_generators(gens)
        assert sg.is_arf() == self._arf_by_translates(sg)

    def test_arf_implies_med_and_pf_shape(self):
        for gens in [(3, 5, 7), (2, 5), (5, 19, 21, 22, 23), (6, 25, 26, 27, 28, 29)]:
            sg = from_generators(gens)
            assert sg.is_arf()
            assert sg.is_med()
            pf = sg.pseudo_frobenius()
            assert pf == tuple(g - sg.multiplicity for g in sg.generators[1:])
            assert len(pf) == sg.multiplicity - 1

    @given(gen_sets())
    @settings(max_examples=50, deadline=None)
    def test_embedding_dimension_bounded(self, gens):
        sg = from_generators(gens)
        assert sg.embedding_dimension <= sg.multiplicity


def _brute_force_arf_closure_smalls(gens):
    """The least Arf oversemigroup obtained by filling gaps below c(S).

    Arf oversemigroups are closed under intersection, so the least one is the
    unique one that adds the fewest gaps: the search is exhaustive up to the
    first size that admits one, and checks that exactly one exists there.
    """
    from itertools import combinations

    sg = from_generators(gens)
    c = sg.conductor
    base = {n for n in range(c) if sg.contains(n)}
    gaps = [n for n in range(c) if n not in base]

    def is_semigroup(smalls):
        return all(
            (a + b in smalls) or (a + b >= c) for a in smalls for b in smalls
        )

    def is_arf(smalls):
        for x in smalls:
            for y in smalls:
                if y <= x and 2 * x - y < c and 2 * x - y not in smalls:
                    return False
        return True

    for r in range(len(gaps) + 1):
        found = []
        for extra in combinations(gaps, r):
            cand = base | set(extra)
            if is_semigroup(cand) and is_arf(cand):
                found.append(cand)
        if found:
            assert len(found) == 1, f"{len(found)} Arf oversemigroups add {r} gaps"
            return found[0]
    raise AssertionError("unreachable: filling every gap gives N, which is Arf")


def _definitional_arf_closure(sg):
    """Reference closure: adjoin every missing 2x - y (y <= x below the current
    conductor) and rebuild until nothing is missing. Each pass fills a gap."""
    while True:
        smalls = [n for n in range(sg.conductor) if sg.contains(n)]
        missing = {
            2 * x - y
            for xi, x in enumerate(smalls)
            for y in smalls[: xi + 1]
            if not sg.contains(2 * x - y)
        }
        if not missing:
            return sg
        sg = from_generators(sg.generators + tuple(missing))


def _arf_closure_through_generators(sg):
    """Reference closure of S != N, built as it was before its Apéry table was
    written down: the multiplicity sequence's positive partial sums below c, each
    run cut at m terms, and [c, c + m), passed through from_generators."""
    current, runs = set(sg.generators), []
    while (a := min(current)) != 1:
        b = min(g for g in current if g != a)
        q = max(1, (b - a) // a)
        runs.append((a, q))
        current = {a} | {g - q * a for g in current if g != a}
    m, p, sums = sg.multiplicity, 0, []
    for a, q in runs:
        sums.extend(range(p + a, p + min(q, m) * a + 1, a))
        p += a * q
    return from_generators([*sums, *range(p, p + m)])


class TestArfClosure:
    def test_fixpoint_for_arf_input(self):
        sg = from_generators([3, 5, 7])
        assert sg.arf_closure() == sg

    def test_example(self):
        closure = from_generators([4, 6, 9]).arf_closure()
        assert closure.contains(8)
        assert closure.generators == (4, 6, 9, 11)
        assert closure.is_arf()

    def test_naturals_fixpoint(self):
        sg = from_generators([1])
        assert sg.arf_closure() == sg

    def test_against_exhaustive_minimal_oversemigroup(self):
        for gens in [(4, 6, 9), (5, 7), (6, 9, 20)]:
            closure = from_generators(gens).arf_closure()
            brute = _brute_force_arf_closure_smalls(gens)
            c = from_generators(gens).conductor
            assert {n for n in range(c) if closure.contains(n)} == brute

    @given(gen_sets())
    @example([5, 38, 39, 45, 161])  # a later multiplicity run starts past a truncated one
    @settings(max_examples=200, deadline=None)
    def test_matches_definitional_fixpoint(self, gens):
        sg = from_generators(gens)
        reference = _definitional_arf_closure(sg)
        closure = sg.arf_closure()
        assert (closure.generators, closure.apery_table) == (
            reference.generators, reference.apery_table
        )
        assert sg.is_arf() == (sg == reference)

    def test_matches_the_generator_pass_on_the_default_suite_inputs(self, monkeypatch):
        drawn = []

        def recording(gens):
            drawn.append(tuple(gens))
            return from_generators(gens)

        with monkeypatch.context() as patch:
            patch.setattr(verifier, "from_generators", recording)
            samples = verifier.sample_arf_closures(
                100, verifier.CLOSURE_MULTIPLICITIES, verifier.DEFAULT_SEED)
            assert len(list(samples)) == 100
        assert len(drawn) >= 100
        for gens in [*verifier.random_semigroups(1000, verifier.DEFAULT_SEED), *drawn]:
            sg = from_generators(gens)
            closure, reference = sg.arf_closure(), _arf_closure_through_generators(sg)
            assert (closure.generators, closure.apery_table) == (
                reference.generators, reference.apery_table
            ), gens

    def test_builds_no_apery_table_by_the_generator_pass(self, monkeypatch):
        # <m, m + 1> closes to <m, m + 1, ..., 2m - 1>: m minimal generators, so a
        # round-robin pass over them would take O(m^2)
        m = 10**5
        sg = from_generators([m, m + 1])

        def refuse(gens):
            raise AssertionError("the closure went through the round-robin pass")

        monkeypatch.setattr(semigroup, "_round_robin", refuse)
        closure = sg.arf_closure()
        assert closure.generators == tuple(range(m, 2 * m))
        assert closure.is_arf() and not sg.is_arf()

    @given(gen_sets(max_value=25, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_closure_properties(self, gens):
        sg = from_generators(gens)
        closure = sg.arf_closure()
        assert closure.is_arf()
        assert all(closure.contains(g) for g in sg.generators)
        assert closure.arf_closure() == closure
        assert closure.multiplicity == sg.multiplicity


@given(gen_sets(), st.lists(st.integers(0, 3), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_frobenius_invariant_under_redundant_generators(gens, coeffs):
    sg = from_generators(gens)
    extra = sum(c * g for c, g in zip(coeffs, sg.generators))
    if extra > 0:
        enlarged = from_generators(tuple(gens) + (extra,))
        assert enlarged.frobenius == sg.frobenius
        assert enlarged.generators == sg.generators
