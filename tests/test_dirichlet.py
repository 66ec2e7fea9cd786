import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from wellround.dirichlet import (
    ArithSeq,
    OutOfRangeError,
    Summatory,
    _isqrt,
    alt_powers,
    band_summatory,
    convolve,
    hyperbola_sum,
    moebius_seq,
    norm_summatory,
    pair_band,
    sparse_times,
    squares_moebius,
    squares_moebius_times,
    summatory_length,
    times_sparse,
)
from wellround.hexagonal import b_hex, b_hex_primitive
from wellround.square import b_square, b_square_primitive

from oracle import CHI_MINUS3, CHI_MINUS4, character_divisor_sums, delta_seq, ones_seq

small_seqs = st.builds(
    ArithSeq, st.lists(st.integers(-9, 9), min_size=1, max_size=40)
)

# lengths on both sides of the split point isqrt(N) of the convolution
lengths = st.one_of(
    st.integers(1, 400),
    st.integers(1, 20).flatmap(lambda k: st.sampled_from([k * k - 1, k * k, k * k + 1])),
).filter(lambda n: 1 <= n <= 400)


def divisor_sum(f: list[int], g: list[int]) -> list[int]:
    """(f*g)(n) for n = 1..N in Python integers, one (d, e) pair at a time."""
    N = min(len(f), len(g))
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        for e in range(1, N // d + 1):
            out[d * e] += f[d - 1] * g[e - 1]
    return out[1:]


class TestArithSeq:
    def test_one_based_access(self):
        s = ArithSeq([5, 7, 9])
        assert s[1] == 5 and s[3] == 9

    def test_out_of_range(self):
        s = ArithSeq([1, 2])
        with pytest.raises(OutOfRangeError):
            s[0]
        with pytest.raises(OutOfRangeError):
            s[3]
        with pytest.raises(OutOfRangeError):
            s.summatory(5)

    def test_truncation_propagates(self):
        f = ones_seq(10)
        g = ones_seq(6)
        assert convolve(f, g).N == 6
        assert (f + g).N == 6


class TestConvolution:
    def test_identity(self):
        f = ArithSeq([3, 1, 4, 1, 5, 9])
        assert convolve(f, delta_seq(6)) == f

    def test_divisor_function(self):
        d = convolve(ones_seq(12), ones_seq(12))
        assert list(d) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]

    @given(small_seqs, small_seqs)
    def test_commutative(self, f, g):
        assert convolve(f, g) == convolve(g, f)

    @given(small_seqs, small_seqs, small_seqs)
    @settings(max_examples=50)
    def test_associative(self, f, g, h):
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))

    def test_moebius_inverts_ones(self):
        N = 200
        assert convolve(moebius_seq(N), ones_seq(N)) == delta_seq(N)

    @given(lengths, st.sampled_from([9, 1 << 40]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_divisor_sum(self, N, size, data):
        coeffs = st.lists(st.integers(-size, size), min_size=N, max_size=N)
        f, g = data.draw(coeffs), data.draw(coeffs)
        assert list(convolve(ArithSeq(f), ArithSeq(g))) == divisor_sum(f, g)

    def test_products_beyond_int64(self):
        # 30 * (2^40 + 30)^2 > 2^63: the exact (object) dtype must run
        f = [(1 << 40) + n for n in range(1, 31)]
        h = convolve(ArithSeq(f), ArithSeq(f))
        assert h._a.dtype == object
        assert list(h) == divisor_sum(f, f)
        assert max(h) > 1 << 63 and all(type(v) is int for v in h)

    def test_fast_and_exact_paths_agree(self):
        big = ArithSeq([(1 << 25) + n for n in range(1, 31)])
        small = ArithSeq(list(range(1, 31)))
        expected = [
            sum(big[d] * small[n // d] for d in range(1, n + 1) if n % d == 0)
            for n in range(1, 31)
        ]
        assert list(convolve(big, small)) == expected


class TestBuildingBlocks:
    def test_characters(self):
        assert [CHI_MINUS4[n % 4] for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
        assert [CHI_MINUS3[n % 3] for n in range(1, 7)] == [1, -1, 0, 1, -1, 0]

    @pytest.mark.parametrize("chi", [CHI_MINUS4, CHI_MINUS3])
    def test_characters_multiplicative(self, chi):
        for m in range(1, 10):
            for n in range(1, 10):
                assert chi[m * n % len(chi)] == chi[m % len(chi)] * chi[n % len(chi)]

    def test_inv_zeta_2s(self):
        s = dense(*squares_moebius(20), 20)
        # mu(sqrt(n)) at squares: 1, -1 at 4, -1 at 9, 0 at 16
        assert [s[n] for n in (1, 2, 4, 9, 16)] == [1, 0, -1, -1, 0]
        zeta_over_zeta2s = times_sparse(*squares_moebius(20), ones_seq(20))
        squares_removed = times_sparse(*squares_moebius(20), zeta_over_zeta2s)
        # 1/zeta(2s) * zeta-like products stay integral
        assert all(isinstance(v, int) for v in squares_removed)

    def test_alt_euler_factor(self):
        s = dense(*alt_powers(2, 20), 20)
        assert [s[n] for n in (1, 2, 4, 8, 16, 3)] == [1, -1, 1, -1, 1, 0]
        # (1 + 2^{-s}) * 1/(1 + 2^{-s}) = 1
        assert times_sparse((1, 2), (1, 1), s) == delta_seq(20)

    def test_shift_support(self):
        f = ArithSeq([1, 2, 3, 4])
        assert list(times_sparse((2,), (1,), f)) == [0, 1, 0, 2]


def check_similar(similar, primitive, chi, N: int) -> None:
    """b(1..N) of the norm form's points equals the oracle's divisor sums of
    chi, and b_pr(1..N) their part free of square factors: b = b_pr * zeta(2s),
    each b(n) the sum of b_pr(n / k^2) over k^2 | n."""
    b = character_divisor_sums(chi, N)
    assert list(similar(N)) == b[1:]
    bpr, total = [0, *primitive(N)], [0] * (N + 1)
    for k in range(1, math.isqrt(N) + 1):
        for m in range(1, N // (k * k) + 1):
            total[m * k * k] += bpr[m]
    assert total == b


SIMILAR = [(b_square, b_square_primitive, CHI_MINUS4), (b_hex, b_hex_primitive, CHI_MINUS3)]


class TestSimilarCounts:
    @pytest.mark.parametrize("similar, primitive, chi", SIMILAR)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_smallest_N(self, similar, primitive, chi, N):
        check_similar(similar, primitive, chi, N)

    @pytest.mark.parametrize("similar, primitive, chi", SIMILAR)
    @settings(max_examples=20, deadline=None)
    @given(N=st.integers(1, 2 * 10**4))
    def test_drawn_N(self, similar, primitive, chi, N):
        check_similar(similar, primitive, chi, N)


def dense(n, c, N: int) -> ArithSeq:
    """The first N coefficients of the series that is c_i at n_i, 0 elsewhere."""
    out = [0] * N
    for ni, ci in zip(n, c):
        if ni <= N:
            out[ni - 1] += int(ci)
    return ArithSeq(out)


# sparse factors: distinct ascending supports, some terms past the stream's end
sparse_terms = st.lists(
    st.tuples(st.integers(1, 60), st.integers(-9, 9)), min_size=1, max_size=8, unique_by=lambda t: t[0]
).map(lambda ts: tuple(zip(*sorted(ts))))


class TestTimesSparse:
    @given(small_seqs, sparse_terms)
    def test_is_the_convolution_with_the_dense_factor(self, f, terms):
        n, c = terms
        assert times_sparse(n, c, f) == convolve(dense(n, c, f.N), f)

    def test_support_past_the_end(self):
        f = ArithSeq([1, 2, 3])
        assert list(times_sparse((4, 7), (5, -1), f)) == [0, 0, 0]
        assert list(times_sparse((1, 3, 9), (2, 1, 1), f)) == [2, 4, 7]

    def test_products_beyond_int64(self):
        # 2 * 2^62 = 2^63: the exact (object) dtype must run
        big = 1 << 62
        f = ArithSeq([big, 1, big, 1])
        h = times_sparse((1, 2), (2, 1), f)
        assert h._a.dtype == object
        assert list(h) == [2 * big, 2 + big, 2 * big, 2 + 1]
        assert list(h) == list(convolve(dense((1, 2), (2, 1), 4), f))
        assert max(h) >= 1 << 63 and all(type(v) is int for v in h)

    def test_a_large_weight_on_a_zero_stream(self):
        assert list(times_sparse((1,), (1 << 70,), ArithSeq([0, 0]))) == [0, 0]


class TestPairBand:
    @pytest.mark.parametrize("r", [3, 9])
    @pytest.mark.parametrize("odd", [False, True])
    def test_matches_double_loop(self, r, odd):
        for N in (1, 2, 3, 15, 48, 49, 50, 500):
            expected = [0] * (N + 1)
            for p in range(1, N + 1):
                for q in range(p + 1, N // p + 1):
                    if q * q < r * p * p and (not odd or (p % 2 and q % 2 and p >= 3)):
                        expected[p * q] += 1
            assert list(pair_band(N, r, odd)) == expected[1:]


def short_table(seq: ArithSeq, N: int) -> Summatory:
    """The partial sums of `seq` from a table of its first N coefficients,
    and from its whole prefix past them."""
    prefix = [0] + seq.summatory_all()
    return Summatory([0, *list(seq)[:N]], prefix.__getitem__, seq.N)


class TestSummatoryPath:
    def test_isqrt_is_exact_near_squares(self):
        roots = np.array([1, 2, 3, 10**4, 2**26, 3 * 10**8, 2**31 - 1], dtype=np.int64)
        n = np.concatenate([roots * roots + d for d in (-1, 0, 1)])
        assert _isqrt(n).tolist() == [math.isqrt(int(v)) for v in n]

    @pytest.mark.parametrize("r", [3, 9])
    @pytest.mark.parametrize("odd", [False, True])
    def test_band_summatory_is_the_band_prefix(self, r, odd):
        # tables short and long: past a short one most t count rows
        prefix = [0] + pair_band(600, r, odd).summatory_all()
        for N in (1, 2, 30, 600):
            band = band_summatory(N, r, odd, 600)
            assert band.c == [0, *pair_band(600, r, odd)][: N + 1]
            assert [band(t) for t in range(601)] == prefix

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=300, max_size=300),
        st.lists(st.integers(-9, 9), min_size=300, max_size=300),
        st.integers(18, 300),
    )
    def test_hyperbola_sum_is_the_convolution_prefix(self, f, g, N):
        # tables of N >= isqrt(300) coefficients: the far terms read `beyond`
        f, g = ArithSeq(f), ArithSeq(g)
        expected = [0] + convolve(f, g).summatory_all()
        F, G = short_table(f, N), short_table(g, N)
        assert [hyperbola_sum(y, F, G) for y in range(301)] == expected

    def test_hyperbola_sum_needs_tables_to_the_split(self):
        with pytest.raises(OutOfRangeError):
            hyperbola_sum(100, short_table(ones_seq(100), 9), short_table(ones_seq(100), 10))

    def test_no_partial_sum_past_the_reach(self):
        B = norm_summatory(0, 10, 50)
        assert B(50) == sum(character_divisor_sums(CHI_MINUS4, 50))
        with pytest.raises(OutOfRangeError):
            B(51)

    @pytest.mark.parametrize("cross, chi", [(0, CHI_MINUS4), (1, CHI_MINUS3)])
    def test_norm_summatory_is_the_divisor_sum_prefix(self, cross, chi):
        # the norm form's points against chi's divisor sums, on both sides
        # of a short table
        N = 2000
        b = character_divisor_sums(chi, N)
        assert norm_summatory(cross, N, N).c == b
        B = norm_summatory(cross, 50, N)
        assert [B(t) for t in range(N + 1)] == list(accumulate(b))

    def test_sparse_factors(self):
        N = 3000
        b = ArithSeq(character_divisor_sums(CHI_MINUS4, N)[1:])
        B = short_table(b, 60)
        primitive = convolve(dense(*squares_moebius(N), N), b)
        P = squares_moebius_times(B)
        assert P.c == [0, *primitive][:61]
        assert [P(t) for t in range(N + 1)] == [0] + primitive.summatory_all()
        off_three = convolve(dense(*alt_powers(3, N), N), primitive)
        A = sparse_times(*alt_powers(3, N), P)
        assert [A(t) for t in range(N + 1)] == [0] + off_three.summatory_all()

    def test_summatory_length(self):
        assert summatory_length(10**6) == 3982
        assert summatory_length(10**9) == 251190
        for x in (1, 2, 3, 8, 1000):
            assert math.isqrt(x) < summatory_length(x) <= x + 1


class TestSummatoryAsymptotics:
    def test_divisor_summatory(self):
        # sum of d(n) = x log x + (2 gamma - 1) x + O(sqrt(x))
        x = 100_000
        d = convolve(ones_seq(x), ones_seq(x))
        total = d.summatory(x)
        gamma = 0.5772156649015329
        model = x * math.log(x) + (2 * gamma - 1) * x
        assert abs(total - model) <= 10 * math.sqrt(x)

    def test_g2_band(self):
        # summatory of sigma_1 = zeta(2)/2 x^2 + O(x log x)
        x = 1000
        sigma = convolve(ones_seq(x), ArithSeq(list(range(1, x + 1))))
        total = sigma.summatory(x)
        model = math.pi**2 / 12 * x * x
        assert abs(total - model) <= 10 * x * math.log(x)
