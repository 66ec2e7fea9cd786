from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from wellround import dirichlet
from wellround.dirichlet import pair_band
from wellround.gram import GramForm, LatticeType
from wellround.hexagonal import a_hex, a_hex_summatory, b_hex, b_hex_primitive
from wellround.sublattices import wr_census_bruteforce

from oracle import well_rounded_list


class TestSimilarCounts:
    def test_b_hex_values(self):
        b = b_hex(12)
        assert list(b) == [1, 0, 1, 1, 0, 0, 2, 0, 1, 0, 0, 1]

    def test_b_hex_multiplicative(self):
        b = b_hex(400)
        for m, n in [(3, 7), (4, 7), (7, 13), (9, 16)]:
            assert b[m * n] == b[m] * b[n]

    def test_primitive(self):
        bp = b_hex_primitive(30)
        assert bp[1] == 1 and bp[4] == 0 and bp[9] == 0
        assert bp[7] == 2


class TestPairCounts:
    def test_band(self):
        w = pair_band(40, 9)
        assert w[2] == 1  # 1*2, q <= 3p - 1 = 2
        assert w[6] == 1  # 2*3
        assert w[10] == 1  # 2*5
        assert w[12] == 1  # 2*6 inside; 3*4 also inside -> actually check below
        assert w[40] == 2  # 5*8 and 4*10

    def test_band_multiplicity(self):
        w = pair_band(40, 9)
        # 12 = 2*6 (6 > 3*2-1=5, outside) and 3*4 (4 <= 8, inside)
        assert w[12] == 1
        # 24 = 3*8 (8 <= 8, inside) and 4*6 (6 <= 11, inside)
        assert w[24] == 2

    def test_odd_band(self):
        w = pair_band(120, 9, odd=True)
        assert w[15] == 1  # (3,5): l=2 <= 3
        assert w[105] == 1  # (2k+1,2l+1) = (5,21): l=10 > 6? no -> (7,15)
        assert w[3] == 0  # k >= 1


class TestWellRounded:
    def test_first_values(self):
        a = a_hex(12)
        assert a[1] == 1 and a[2] == 0 and a[3] == 1 and a[4] == 1

    def test_matches_census_small(self):
        N = 60
        census = wr_census_bruteforce(GramForm.of(2, 1, 2), N)
        assert list(a_hex(N)) == well_rounded_list(census)

    def test_no_square_sublattices(self):
        census = wr_census_bruteforce(GramForm.of(2, 1, 2), 80)
        assert census.by_type[LatticeType.SQUARE] == [0] * 80

    def test_similar_are_hexagonal_type(self):
        census = wr_census_bruteforce(GramForm.of(2, 1, 2), 40)
        assert census.by_type[LatticeType.HEXAGONAL] == list(b_hex(40))


@cache
def _prefix(N: int) -> list[int]:
    """A(1), ..., A(N) from the array of `a_hex`, built once per N."""
    return a_hex(N).summatory_all()


class TestSummatory:
    def test_every_x_to_3000(self):
        # tables of about 3000^(2/3) entries: most x read past them
        assert a_hex_summatory(range(1, 3001)) == _prefix(3000)

    def test_each_x_alone_to_400(self):
        # each x on its own tables, so that small x read them alone
        assert [a_hex_summatory([x])[0] for x in range(1, 401)] == _prefix(3000)[:400]

    def test_benchmark_checkpoints(self):
        checkpoints = (600, 10000, 100000, 500000)
        prefix = _prefix(max(checkpoints))
        assert a_hex_summatory(checkpoints) == [prefix[x - 1] for x in checkpoints]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=4))
    def test_drawn_x(self, xs):
        # the numpy stream is the reference for the plain-Python path
        prefix = _prefix(10**6)
        assert a_hex_summatory(xs) == [prefix[x - 1] for x in xs]

    def test_builds_no_array_near_x(self, monkeypatch):
        lengths = []
        init = dirichlet.Summatory.__init__

        def record(self, c, beyond, reach):
            init(self, c, beyond, reach)
            lengths.append(len(c) - 1)

        monkeypatch.setattr(dirichlet.Summatory, "__init__", record)
        a_hex_summatory([10**6])
        assert 0 < max(lengths) <= dirichlet.summatory_length(10**6)

    def test_value_at_the_cli_cap(self):
        # the value the numpy summatory gave
        assert a_hex_summatory([10**9]) == [4971374480]
