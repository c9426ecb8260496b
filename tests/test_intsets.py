"""Sumset arithmetic and power-set classification against independent oracles."""

import contextlib
import hashlib
import io
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from iasl_lab import (EnumerationInfeasible, Graph, GroundSet, IntSet,
                      SumsetClassification, all_nonempty_subsets, classify,
                      labelings, oracle, search, summand_decompositions,
                      sumset, topology)
from iasl_lab.cli import main
from iasl_lab.intsets import (_sum_bits, _table_representatives, record_json,
                              subset_sort_key, sumset_mask, table_key)

# SHA-256 over `classify --json` and every subset's summand decompositions,
# for X = {0} plus up to four elements of 1..7 (see test_outputs_are_pinned)
CLASSIFY_SHA256 = "145d53e994bdf800b82fd718e74c31d3b1818a093b22ae90e3e85cbf4c162a84"

small_sets = st.frozensets(st.integers(min_value=0, max_value=5), min_size=1)


def brute_sumset(a, b):
    return frozenset(x + y for x in a for y in b)


def brute_classification(ground: frozenset):
    """Unpruned double loop over all ordered subset pairs, on plain frozensets."""
    elems = sorted(ground)
    subs = [frozenset(c) for r in range(1, len(elems) + 1)
            for c in combinations(elems, r)]
    zero = frozenset({0})
    sums = {}
    summands = set()
    for a in subs:
        for b in subs:
            if a == zero or b == zero:
                continue
            s = brute_sumset(a, b)
            if s <= ground:
                sums.setdefault(s, (a, b))
                summands.add(a)
                summands.add(b)
    neither = sum(1 for s in subs
                  if s != zero and s not in sums and s not in summands)
    return sums, summands, neither


class TestIntSet:
    def test_construction_sorts_and_dedups(self):
        assert IntSet((3, 1, 1, 0)).elements == (0, 1, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntSet((-1,))

    def test_rejects_above_bound(self):
        with pytest.raises(ValueError):
            IntSet((64,))

    @pytest.mark.parametrize("element", ["1", True, 1.0])
    def test_rejects_non_integers(self, element):
        with pytest.raises(ValueError, match="set elements must be integers"):
            IntSet([element])

    @pytest.mark.parametrize("text,expected", [
        ("{0,1,3}", (0, 1, 3)),
        ("0,1,3", (0, 1, 3)),
        ("{ 0 , 2 }", (0, 2)),
        ("{}", ()),
        ("∅", ()),
    ])
    def test_parse(self, text, expected):
        assert IntSet.parse(text).elements == expected

    # int() would read {1_0} as {10}, {+1} as {1} and {\u0663} as {3}
    @pytest.mark.parametrize("text", ["", "{1,2", "{a}", "1;2", "{1_0}", "{+1}",
                                      "{\u0663}", "{-0}", "1_0"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            IntSet.parse(text)

    def test_parse_names_a_negative_element(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            IntSet.parse("{0,-01}")

    def test_format_is_braced_and_sorted(self):
        assert str(IntSet((2, 0))) == "{0,2}"
        assert str(IntSet(())) == "{}"

    @given(st.frozensets(st.integers(min_value=0, max_value=20)))
    def test_parse_format_round_trip(self, elems):
        s = IntSet(elems)
        assert IntSet.parse(str(s)) == s

    def test_operator_surface(self):
        a, b = IntSet((0, 2)), IntSet((1, 2))
        assert (a | b).elements == (0, 1, 2)
        assert (a & b).elements == (2,)
        assert 2 in a and 1 not in a
        assert a.max() == 2
        assert sorted([b, a]) == [a, b]

    def test_empty_set_has_no_max(self):
        with pytest.raises(ValueError):
            IntSet(()).max()


class TestSumset:
    def test_zero_is_identity(self):
        assert sumset(IntSet((0,)), IntSet((1, 3))) == IntSet((1, 3))

    def test_singletons(self):
        assert sumset(IntSet((2,)), IntSet((3,))) == IntSet((5,))

    def test_pairwise_enumeration(self):
        # {1,2} + {0,1}: sums 1+0, 1+1, 2+0, 2+1
        assert sumset(IntSet((1, 2)), IntSet((0, 1))) == IntSet((1, 2, 3))

    def test_rejects_empty_operand(self):
        with pytest.raises(ValueError):
            sumset(IntSet(()), IntSet((1,)))
        with pytest.raises(ValueError):
            sumset(IntSet((1,)), IntSet(()))

    @given(small_sets, small_sets)
    def test_matches_brute_force(self, a, b):
        assert sumset(IntSet(a), IntSet(b)).elements == tuple(sorted(brute_sumset(a, b)))

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        assert sumset(IntSet(a), IntSet(b)) == sumset(IntSet(b), IntSet(a))

    @given(small_sets, small_sets, small_sets)
    def test_associative(self, a, b, c):
        x, y, z = IntSet(a), IntSet(b), IntSet(c)
        assert sumset(sumset(x, y), z) == sumset(x, sumset(y, z))

    @given(small_sets, small_sets)
    def test_cardinality_bounds(self, a, b):
        s = sumset(IntSet(a), IntSet(b))
        assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)

    @given(small_sets, small_sets)
    def test_max_sum_is_member_and_bound(self, a, b):
        s = sumset(IntSet(a), IntSet(b))
        top = max(a) + max(b)
        assert top in s
        assert all(e <= top for e in s)


class TestGroundSet:
    def test_requires_zero(self):
        with pytest.raises(ValueError):
            GroundSet((1, 2))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            GroundSet(())

    def test_cap(self):
        with pytest.raises(EnumerationInfeasible):
            GroundSet((0, 1, 2, 3, 4, 5))

    def test_parse(self):
        assert GroundSet.parse("{0,1}").elements == (0, 1)


class TestSubsetEnumeration:
    def test_two_element_ground(self):
        subs = all_nonempty_subsets(GroundSet((0, 1)))
        assert [str(s) for s in subs] == ["{0}", "{1}", "{0,1}"]

    def test_singleton_ground(self):
        assert [str(s) for s in all_nonempty_subsets(GroundSet((0,)))] == ["{0}"]

    def test_three_element_order(self):
        subs = all_nonempty_subsets(GroundSet((0, 1, 2)))
        assert len(subs) == 7
        assert [str(s) for s in subs[:4]] == ["{0}", "{1}", "{2}", "{0,1}"]

    @pytest.mark.parametrize("elems", [(0, 2), (0, 1, 4), (0, 1, 2, 3)])
    def test_count_and_uniqueness(self, elems):
        subs = all_nonempty_subsets(GroundSet(elems))
        assert len(subs) == 2 ** len(elems) - 1
        assert len({s.mask for s in subs}) == len(subs)

    def test_canonical_order_over_every_small_ground_set(self):
        # subset_masks generates the order; it must be subset_sort_key's
        for size in range(1, 6):
            for rest in combinations(range(1, 11), size - 1):
                x = GroundSet((0,) + rest)
                every = [m for m in range(1, x.mask + 1) if not m & ~x.mask]
                assert x.subset_masks() == tuple(sorted(every, key=subset_sort_key))


class TestSummandDecompositions:
    def test_spec_case_two(self):
        x = GroundSet((0, 1, 2))
        got = summand_decompositions(IntSet((2,)), x)
        assert [(str(a), str(b)) for a, b in got] == [("{0}", "{2}"), ("{1}", "{1}")]

    def test_spec_case_one(self):
        x = GroundSet((0, 1, 2))
        got = summand_decompositions(IntSet((1,)), x)
        assert [(str(a), str(b)) for a, b in got] == [("{0}", "{1}")]

    def test_zero_only_decomposes_trivially(self):
        x = GroundSet((0, 1, 2))
        got = summand_decompositions(IntSet((0,)), x)
        assert [(str(a), str(b)) for a, b in got] == [("{0}", "{0}")]

    def test_rejects_non_subset(self):
        with pytest.raises(ValueError):
            summand_decompositions(IntSet((5,)), GroundSet((0, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summand_decompositions(IntSet(()), GroundSet((0, 1)))

    def test_agrees_with_brute_force(self):
        x = GroundSet((0, 1, 2))
        subs = [frozenset(s.elements) for s in all_nonempty_subsets(x)]
        for c in all_nonempty_subsets(x):
            expected = sorted(
                tuple(sorted((tuple(sorted(a)), tuple(sorted(b)))))
                for a in subs for b in subs
                if brute_sumset(a, b) == frozenset(c.elements))
            expected = sorted(set(expected))
            got = sorted(set(
                tuple(sorted((a.elements, b.elements)))
                for a, b in summand_decompositions(c, x)))
            assert got == expected


class TestClassify:
    def test_three_element_ground(self):
        cls = classify(GroundSet((0, 1, 2)))
        assert cls.rho == 3
        assert {str(s) for s, c in cls.per_subset.items()
                if c.is_nontrivial_sumset} == {"{2}", "{1,2}", "{0,1,2}"}
        assert {str(s) for s in cls.nontrivial_summands()} == {"{1}", "{0,1}"}
        assert cls.rho_prime == 1
        assert [str(s) for s in cls.neither()] == ["{0,2}"]
        assert cls.x_is_sumset

    def test_singleton_ground(self):
        cls = classify(GroundSet((0,)))
        assert cls.rho == 0
        assert cls.rho_prime == 0
        assert not cls.x_is_sumset

    def test_zero_never_flagged(self):
        for elems in [(0, 1), (0, 1, 2), (0, 2, 3)]:
            cls = classify(GroundSet(elems))
            zero = cls.per_subset[IntSet((0,))]
            assert not zero.is_nontrivial_sumset
            assert not zero.is_nontrivial_summand

    def test_witnesses_recompose(self):
        for elems in [(0, 1, 2), (0, 1, 2, 3), (0, 2, 5)]:
            cls = classify(GroundSet(elems))
            for s, c in cls.per_subset.items():
                if c.is_nontrivial_sumset:
                    a, b = c.witness
                    assert sumset(a, b) == s
                    assert a.elements != (0,) and b.elements != (0,)
                else:
                    assert c.witness is None

    def test_rho_partitions_the_lattice(self):
        for elems in [(0, 1), (0, 1, 2), (0, 1, 3), (0, 2, 3, 5)]:
            cls = classify(GroundSet(elems))
            non_sumsets = sum(1 for c in cls.per_subset.values()
                              if not c.is_nontrivial_sumset)
            assert cls.rho + non_sumsets == 2 ** len(elems) - 1

    @given(st.frozensets(st.integers(min_value=1, max_value=6), max_size=3))
    def test_agrees_with_independent_oracle(self, extra):
        ground = frozenset({0} | extra)
        cls = classify(GroundSet(ground))
        sums, summands, neither = brute_classification(ground)
        assert cls.rho == len(sums)
        assert {frozenset(s.elements) for s, c in cls.per_subset.items()
                if c.is_nontrivial_sumset} == set(sums)
        assert {frozenset(s.elements) for s in cls.nontrivial_summands()} == summands
        assert cls.rho_prime == neither
        assert cls.rho_double_prime == cls.rho_prime
        assert cls.x_is_sumset == (ground in sums)

    def test_outputs_are_pinned(self):
        digest = hashlib.sha256()
        for k in range(5):
            for rest in combinations(range(1, 8), k):
                x = GroundSet((0,) + rest)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["classify", str(x), "--json"]) == 0
                digest.update(out.getvalue().encode())
                for m in x.subset_masks():
                    for a, b in summand_decompositions(IntSet.from_mask(m), x):
                        digest.update(f"{a}+{b};".encode())
                    digest.update(b"\n")
        assert digest.hexdigest() == CLASSIFY_SHA256


def looped_classify(x):
    """``classify`` from its definition, without the sumset table: every pair
    p <= q of subsets other than {0}, in row-major order, gives the witness
    masks of each subset (None when it is no sumset), the summand flags, rho,
    rho', whether X is a sumset, and beta."""
    subs = x.subset_masks()
    witness = {}
    summands = set()
    distinct = set()  # sums of pairs p < q
    for p in range(1, len(subs)):
        for q in range(p, len(subs)):
            c = sumset_mask(subs[p], subs[q])
            if c & ~x.mask:
                continue
            k = subs.index(c)
            witness.setdefault(k, (subs[p], subs[q]))
            summands |= {p, q}
            if q > p:
                distinct.add(k)
    per = [(witness.get(p), p in summands) for p in range(len(subs))]
    neither = sum(1 for p, (wit, summand) in enumerate(per)
                  if p and wit is None and not summand)
    floor = sum(1 for p in range(1, len(subs)) if p not in distinct)
    return (per, len(witness), neither, len(subs) - 1 in witness, floor)


class TestTableKey:
    # every X containing 0 inside {0,...,10} with |X| <= 5
    GROUNDS = [GroundSet((0,) + rest) for size in range(1, 6)
               for rest in combinations(range(1, 11), size - 1)]

    def test_table_entries_are_sumset_positions(self):
        # each row is built from a smaller one; every entry must still be
        # the position bit of the plain sumset, or 0 outside X
        assert len(self.GROUNDS) == 386
        for x in self.GROUNDS:
            masks = x.subset_masks()
            expected = tuple(
                tuple(1 << masks.index(sumset_mask(a, b))
                      if sumset_mask(a, b) & ~x.mask == 0 else 0
                      for b in masks)
                for a in masks)
            assert _sum_bits(x) == expected

    def test_classify_equals_the_pair_loop(self):
        # classify reads the sumset table; it must keep the definition's
        # first witness (p <= q, row-major) and every count
        for x in self.GROUNDS:
            c = classify(x)
            per = [(None if k.witness is None
                    else (k.witness[0].mask, k.witness[1].mask),
                    k.is_nontrivial_summand) for k in c.per_subset.values()]
            assert [s.mask for s in c.per_subset] == list(x.subset_masks())
            assert all(k.is_nontrivial_sumset == (k.witness is not None)
                       for k in c.per_subset.values())
            assert (per, c.rho, c.rho_prime, c.x_is_sumset,
                    c.zero_degree_floor) == looped_classify(x)
            assert c.rho_double_prime == c.rho_prime

    def test_keys_match_sumset_tables(self):
        # every X containing 0 inside {0,...,10} with |X| <= 5: 386 ground
        # sets, grouped alike by their key and by their table
        classes = {}
        grounds = 0
        for size in range(1, 6):
            pairs = set()
            for rest in combinations(range(1, 11), size - 1):
                elems = (0,) + rest
                pairs.add((table_key(elems), _sum_bits(GroundSet(elems))))
                grounds += 1
            keys = {key for key, _table in pairs}
            tables = {table for _key, table in pairs}
            assert len(keys) == len(tables) == len(pairs)
            classes[size] = len(pairs)
        assert grounds == 386
        assert classes == {1: 1, 2: 1, 3: 2, 4: 7, 5: 37}

    @pytest.mark.parametrize("bound, counts", [(0, (1, 0, 0, 0, 0)),
                                               (6, (1, 1, 2, 7, 13)),
                                               (10, (1, 1, 2, 7, 37))])
    def test_one_representative_per_table(self, bound, counts):
        # in (max element, lex) order, each candidate's table has a
        # representative no later than the candidate, and no two
        # representatives share a table: so each is its table's first
        def order(elems):
            return elems[-1], elems

        for size, count in zip(range(1, 6), counts):
            reps = _table_representatives(size, bound)
            assert isinstance(reps, tuple) and len(reps) == count
            assert len({_sum_bits(x) for x in reps}) == count
            rep_elems = [x.elements for x in reps]
            assert rep_elems == sorted(rep_elems, key=order)
            by_key = {table_key(elems): elems for elems in rep_elems}
            for rest in combinations(range(1, bound + 1), size - 1):
                cand = (0,) + rest
                assert order(by_key[table_key(cand)]) <= order(cand)
        assert [str(x) for x in _table_representatives(1, 0)] == ["{0}"]

    def test_triples(self):
        assert table_key((0,)) == ((0, 0, 0),)
        assert table_key((0, 1, 2)) == ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 1, 2))
        assert table_key((0, 2, 3, 5)) == ((0, 0, 0), (0, 1, 1), (0, 2, 2),
                                           (0, 3, 3), (1, 2, 3))


class TestRecordJson:
    def test_fields_in_declaration_order(self):
        @dataclass(frozen=True)
        class Inner:
            name: str

            def to_json(self):
                return {"inner": self.name}

        @dataclass(frozen=True)
        class Record:
            z: int
            ground: GroundSet
            sets: tuple
            by_name: dict
            inner: Optional[Inner]
            missing: Optional[Inner]
            flag: bool

        record = Record(1, GroundSet((0, 2)), (IntSet((1,)), [IntSet(())]),
                        {"b": IntSet((0, 1)), "a": Inner("x")}, Inner("y"),
                        None, True)
        out = record_json(record)
        assert list(out) == ["z", "ground", "sets", "by_name", "inner",
                             "missing", "flag"]
        assert out == {"z": 1, "ground": "{0,2}", "sets": ["{1}", ["{}"]],
                       "by_name": {"b": "{0,1}", "a": {"inner": "x"}},
                       "inner": {"inner": "y"}, "missing": None, "flag": True}

    def test_the_field_for_field_records_share_it(self):
        # the records whose JSON is their fields use record_json; the four
        # whose JSON is not keep their own
        shared = [labelings.Labeling, labelings.Violation,
                  labelings.VerificationReport, search.StructuralScreen,
                  search.SearchOutcome, oracle.Scope, oracle.Witness,
                  oracle.Finding]
        assert all(cls.to_json is record_json for cls in shared)
        own = [oracle.TheoremReport, topology.Topology, SumsetClassification,
               Graph]
        assert not any(cls.to_json is record_json for cls in own)
