from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from wellround import dirichlet
from wellround.dirichlet import pair_band
from wellround.gram import GramForm
from wellround.square import a_square, a_square_summatory, b_square, b_square_primitive
from wellround.sublattices import wr_census_bruteforce

from oracle import (
    fukshansky_superset_member,
    is_admissible_index_square,
    primitive_type_series,
    rhombic_square_series,
    well_rounded_list,
)


class TestSimilarCounts:
    def test_b_square_values(self):
        b = b_square(20)
        # 1, 1, 0, 1, 2, 0, 0, 1, 1, 2 for n = 1..10
        assert list(b)[:10] == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]

    def test_b_square_multiplicative(self):
        b = b_square(400)
        for m, n in [(2, 5), (4, 9), (5, 13), (8, 25)]:
            assert b[m * n] == b[m] * b[n]

    def test_primitive_values(self):
        bp = b_square_primitive(25)
        # primitivity removes the square-factor similarity copies
        assert bp[1] == 1 and bp[4] == 0 and bp[9] == 0
        assert bp[5] == 2 and bp[25] == 2


class TestPairCounts:
    def test_band_examples(self):
        w = pair_band(40, 3)
        # 2*3: 3 < 2*sqrt(3), inside; 2*4: 16 >= 12, outside
        assert w[6] == 1 and w[8] == 0
        assert w[12] == 1  # 3*4
        assert w[35] == 1  # 5*7

    def test_odd_band_starts_at_k_one(self):
        w = pair_band(40, 3, odd=True)
        assert w[15] == 1  # 3*5, 25 < 27
        assert w[21] == 0  # 3*7, 49 >= 27
        assert w[3] == 0  # 1*3 excluded: k >= 1


class TestWellRounded:
    def test_first_values(self):
        a = a_square(12)
        assert list(a) == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2, 0, 2]

    def test_matches_census_small(self):
        N = 60
        census = wr_census_bruteforce(GramForm.of(1, 0, 1), N)
        assert list(a_square(N)) == well_rounded_list(census)

    def test_type_split_matches_census(self):
        N = 40
        census = wr_census_bruteforce(GramForm.of(1, 0, 1), N)
        split = rhombic_square_series(N)
        from wellround.gram import LatticeType

        combined = [
            census.by_type[LatticeType.RHOMBIC][n]
            + census.by_type[LatticeType.CENTRED_RECTANGULAR][n]
            + census.by_type[LatticeType.SQUARE][n]
            for n in range(N)
        ]
        assert list(split["all"]) == combined

    def test_primitive_rhombic_cr_index_two(self):
        # the index-2 well-rounded sublattice of the square lattice is itself
        # square, so the rhombic/centred-rectangular primitive count at 2 is 0
        series = primitive_type_series(4)
        assert series["rhombic_cr"][2] == 0
        assert series["square"][2] == 1


class TestAdmissibleIndices:
    def test_six_is_excluded(self):
        assert a_square(6)[6] == 0
        assert not is_admissible_index_square(6)
        assert fukshansky_superset_member(6)

    def test_admissible_iff_positive_count(self):
        a = a_square(200)
        for n in range(1, 201):
            assert is_admissible_index_square(n) == (a[n] > 0)


@cache
def _prefix(N: int) -> list[int]:
    """A(1), ..., A(N) from the array of `a_square`, built once per N."""
    return a_square(N).summatory_all()


class TestSummatory:
    def test_every_x_to_3000(self):
        # tables of about 3000^(2/3) entries: most x read past them
        assert a_square_summatory(range(1, 3001)) == _prefix(3000)

    def test_each_x_alone_to_400(self):
        # each x on its own tables, so that small x read them alone
        assert [a_square_summatory([x])[0] for x in range(1, 401)] == _prefix(3000)[:400]

    def test_benchmark_checkpoints(self):
        checkpoints = (600, 10000, 100000, 1000000)
        prefix = _prefix(max(checkpoints))
        assert a_square_summatory(checkpoints) == [prefix[x - 1] for x in checkpoints]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=4))
    def test_drawn_x(self, xs):
        # the numpy stream is the reference for the plain-Python path
        prefix = _prefix(10**6)
        assert a_square_summatory(xs) == [prefix[x - 1] for x in xs]

    def test_builds_no_array_near_x(self, monkeypatch):
        lengths = []
        init = dirichlet.Summatory.__init__

        def record(self, c, beyond, reach):
            init(self, c, beyond, reach)
            lengths.append(len(c) - 1)

        monkeypatch.setattr(dirichlet.Summatory, "__init__", record)
        a_square_summatory([10**6])
        assert 0 < max(lengths) <= dirichlet.summatory_length(10**6)

    def test_value_at_the_cli_cap(self):
        # the value the numpy summatory gave
        assert a_square_summatory([10**9]) == [4075827664]

    def test_roadmap_value_at_ten_million(self):
        # the value a_square(10^7) gives
        assert a_square_summatory([10**7]) == [32_706_462]
