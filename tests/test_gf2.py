import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
from shiftwalk import (
    BitVector,
    GF2Matrix,
    SingularMatrixError,
    companion_matrix,
    det_gf2,
    evolve_symbolic,
    mat_pow,
    q2,
    shift_register,
    solve_linear,
    stream,
)
from shiftwalk.gf2 import _power_rows, _shift_power, _shift_word
from shiftwalk.suites import CheckResult, suite_matrix_order


def random_matrix(n, gen):
    return GF2Matrix(n, n, tuple(int(w) for w in
                                 gen.integers(0, 1 << n, size=n, dtype=np.uint64)))


def random_invertible(n, gen):
    while True:
        m = random_matrix(n, gen)
        if det_gf2(m) == 1:
            return m


class TestBitVector:
    def test_from_string_round_trip(self):
        v = BitVector.from_string("10110")
        assert v.to_string() == "10110"
        assert v.bits == (1, 0, 1, 1, 0)
        assert v.weight() == 3
        assert v.parity() == 1
        assert len(v) == 5

    def test_indexing_and_flip(self):
        v = BitVector.from_string("100")
        assert v[0] == 1 and v[1] == 0
        assert (v ^ BitVector(3, 1 << 2)).to_string() == "101"
        with pytest.raises(IndexError):
            v.bit(3)

    def test_unit(self):
        # bit i of the word is coordinate i + 1
        assert BitVector(4, 1 << 0).to_string() == "1000"
        assert BitVector(4, 1 << 3).to_string() == "0001"

    def test_xor_requires_equal_length(self):
        with pytest.raises(ValueError):
            BitVector.zeros(3) ^ BitVector.zeros(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(0, 0)
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError):
            BitVector(3, -1)
        with pytest.raises(ValueError):
            BitVector.from_string("10x")
        assert BitVector(3, 7).weight() == 3

    def test_range_check_builds_no_power_of_two(self):
        # 1 << n alone would be 12.5 MB at n = 10^8.
        _, peak = peak_bytes(BitVector.zeros, 10**8)
        assert peak < 64 << 10, peak

    def test_random_is_reproducible(self):
        a = BitVector.random(130, stream(5, 0))
        b = BitVector.random(130, stream(5, 0))
        assert a == b and a.n == 130


def old_to_string(v):
    return "".join(str((v.word >> i) & 1) for i in range(v.n))


def old_from_string(text):
    return BitVector(len(text), sum(int(ch) << i for i, ch in enumerate(text)))


class TestStringForms:
    """format/int string conversion equals the old per-bit forms."""

    @staticmethod
    def words(n, gen):
        full = (1 << n) - 1
        r = BitVector.random(n, gen).word
        return {0, 1, full, 1 << (n - 1), r, r & (full >> (n // 2)),
                r & ~((1 << (n // 2)) - 1) & full, r | 1, r | (1 << (n - 1))}

    @pytest.mark.parametrize("n", list(range(1, 131)) + [2048])
    def test_equal_to_per_bit_forms(self, n):
        gen = stream(51, n)
        for word in self.words(n, gen):
            v = BitVector(n, word)
            text = v.to_string()
            assert text == old_to_string(v) and len(text) == n
            assert BitVector.from_string(text) == old_from_string(text) == v
            bits = v.bits
            assert bits == tuple((word >> i) & 1 for i in range(n)) == tuple(v)
            assert all(type(b) is int for b in bits)

    # Full-width digits, which int(..., 2) reads, and a base prefix.
    @pytest.mark.parametrize("text", ["", "012", " 01", "01 ", "0_1", "+01", "-1", "1\n",
                                      "\uff10\uff11", "0b1"])
    def test_rejects_non_bitstrings(self, text):
        with pytest.raises(ValueError):
            BitVector.from_string(text)


class TestShiftRegister:
    def test_zero_fixed_point(self):
        z = BitVector.zeros(4)
        assert shift_register(z) == z

    def test_unit_goes_to_last(self):
        # the single leading one shifts out and reappears as the parity
        assert shift_register(BitVector.from_string("1000")) == \
            BitVector.from_string("0001")

    def test_three_bit_example(self):
        assert shift_register(BitVector.from_string("110")) == \
            BitVector.from_string("100")

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 130])
    def test_power_is_rotation_of_word_and_parity(self, n):
        gen = stream(15, n)
        for x in [BitVector.zeros(n), BitVector(n, 1), BitVector(n, 1 << (n - 1))] + [
            BitVector.random(n, gen) for _ in range(4)
        ]:
            word = x.word
            for k in range(3 * (n + 1) + 1):
                assert _shift_power(n, x.word, k) == word, (x, k)
                word = _shift_word(n, word)

    def test_matches_matrix_exhaustively(self):
        for n in range(2, 11):
            a = companion_matrix(n)
            for word in range(1 << n):
                x = BitVector(n, word)
                assert a @ x == shift_register(x)


class TestCompanionMatrix:
    def test_n2_entries(self):
        # rows 01 and 11; bit j of a row word is column j
        assert companion_matrix(2) == GF2Matrix(2, 2, (0b10, 0b11))

    def test_unit_images(self):
        a = companion_matrix(5)
        e1, e4, e5 = (BitVector(5, 1 << i) for i in (0, 3, 4))
        assert a @ e1 == e5
        assert a @ (a @ e1) == e5 ^ e4

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            companion_matrix(1)


class TestMatPow:
    def test_zeroth_power_is_identity(self):
        m = random_matrix(8, stream(1, 0))
        assert mat_pow(m, 0) == GF2Matrix.identity(8)

    def test_order_of_shift_matrix(self):
        a = companion_matrix(6)
        assert mat_pow(a, 7) == GF2Matrix.identity(6)

    def test_power_recursion(self):
        m = random_matrix(8, stream(2, 0))
        assert mat_pow(m, 5) == m.mul_mat(mat_pow(m, 4))

    def test_no_smaller_power_is_identity(self):
        # informational in the verify suite; here pinned for n <= 24
        for n in range(2, 25):
            a = companion_matrix(n)
            p = a
            early = []
            for k in range(1, n + 1):
                if p == GF2Matrix.identity(n):
                    early.append(k)
                p = p.mul_mat(a)
            if early:
                print(f"note: n={n} has identity powers below n+1: {early}")
            assert p == GF2Matrix.identity(n)  # p is now a^(n+1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mat_pow(GF2Matrix(2, 3, (0, 0)), 2)
        with pytest.raises(ValueError):
            mat_pow(GF2Matrix.identity(2), -1)


def reference_matrix_order(n_max, spot_n):
    """The matrix-order suite's checks, every power by square-and-multiply."""
    failures = [n for n in range(2, n_max + 1)
                if mat_pow(companion_matrix(n), n + 1) != GF2Matrix.identity(n)]
    early = [(n, k) for n in range(2, min(n_max, 64) + 1) for k in range(1, n + 1)
             if mat_pow(companion_matrix(n), k) == GF2Matrix.identity(n)]
    spot = mat_pow(companion_matrix(spot_n), spot_n + 1) == GF2Matrix.identity(spot_n)
    return [
        CheckResult(f"power n+1 is identity for 2 <= n <= {n_max}", not failures,
                    {"failures": failures}),
        CheckResult("no smaller power is the identity (n <= 64, informational)",
                    True, {"early_identities": early}),
        CheckResult(f"spot check at n = {spot_n}", spot, {}),
    ]


class TestCompanionPower:
    """``gf2._power_rows``, M^k's rows in closed form, against ``mat_pow``."""

    def test_equals_mat_pow(self):
        for n in range(2, 41):
            a = companion_matrix(n)
            for k in range(0, 2 * n + 4):
                assert tuple(_power_rows(n, k)) == mat_pow(a, k).rows, (n, k)

    def test_identity_is_power_zero(self):
        for n in (1, 2, 3, 64, 1000):
            rows = tuple(1 << i for i in range(n))
            assert GF2Matrix.identity(n).rows == tuple(_power_rows(n, 0)) == rows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_order_is_n_plus_one(self, data):
        n = data.draw(st.integers(2, 2000), label="n")
        k = data.draw(st.integers(1, n), label="k")
        identity = [1 << i for i in range(n)]
        assert list(_power_rows(n, n + 1)) == identity
        assert list(_power_rows(n, k)) != identity

    def test_suite_holds_no_matrix(self):
        # Each row is read and dropped: no n-row tuple of the spot check
        # (about 6 MiB at n = 10^4) is ever held.
        _, peak = peak_bytes(suite_matrix_order, n_max=64, spot_n=10_000)
        assert peak < 1 << 20, peak

    def test_suite_matches_square_and_multiply(self):
        got = suite_matrix_order(n_max=64, spot_n=300)
        want = reference_matrix_order(64, 300)
        spot_observed = got[-1].observed
        assert set(spot_observed) == {"elapsed_s"}
        assert spot_observed["elapsed_s"] >= 0
        got[-1] = CheckResult(got[-1].name, got[-1].passed, {})
        assert got == want


class TestSolveAndDet:
    def test_identity_solve(self):
        b = BitVector.from_string("1011")
        assert solve_linear(GF2Matrix.identity(4), b) == b

    def test_homogeneous_solve_with_transfer_matrix(self):
        b = evolve_symbolic(q2(6), BitVector.zeros(6), 6).map
        assert solve_linear(b, BitVector.zeros(6)) == BitVector.zeros(6)

    def test_round_trip_random_invertible(self):
        gen = stream(3, 0)
        for _ in range(25):
            m = random_invertible(10, gen)
            v = BitVector.random(10, gen)
            assert solve_linear(m, m @ v) == v
            b = BitVector.random(10, gen)
            assert m @ solve_linear(m, b) == b

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(GF2Matrix(3, 3, (0,) * 3), BitVector.zeros(3))

    def test_det_values(self):
        assert det_gf2(GF2Matrix.identity(5)) == 1
        assert det_gf2(GF2Matrix(5, 5, (0,) * 5)) == 0
        for m in range(2, 9):
            n = 2 * m
            assert det_gf2(evolve_symbolic(q2(n), BitVector.zeros(n), n).map) == 1

    def test_det_one_iff_solvable_for_basis(self):
        gen = stream(4, 0)
        for _ in range(20):
            m = random_matrix(6, gen)
            solvable = True
            for i in range(6):
                try:
                    solve_linear(m, BitVector(6, 1 << i))
                except SingularMatrixError:
                    solvable = False
                    break
            assert solvable == (det_gf2(m) == 1)


class TestGF2Matrix:
    def test_associativity_with_vector(self):
        gen = stream(7, 0)
        for _ in range(10):
            m1, m2 = random_matrix(6, gen), random_matrix(6, gen)
            v = BitVector.random(6, gen)
            assert (m1.mul_mat(m2)) @ v == m1 @ (m2 @ v)

    def test_identity_action(self):
        v = BitVector.from_string("0110")
        assert GF2Matrix.identity(4) @ v == v

    def test_rejects_rows_out_of_range(self):
        n = 70
        assert GF2Matrix(2, n, ((1 << n) - 1, 0)).rows[0] == (1 << n) - 1
        for row in (1 << n, -1):
            with pytest.raises(ValueError):
                GF2Matrix(2, n, (0, row))

    def test_range_check_builds_no_power_of_two(self):
        # 1 << n_cols alone would be 12.5 MB at 10^8 columns.
        _, peak = peak_bytes(GF2Matrix, 1, 10**8, (1,))
        assert peak < 64 << 10, peak

    def test_rank(self):
        # rank is private to det_gf2: a repeated row leaves rank n-1
        rows = GF2Matrix.identity(6).rows
        assert det_gf2(GF2Matrix(6, 6, rows[:5] + rows[4:5])) == 0
        assert det_gf2(GF2Matrix(6, 6, rows[1:] + rows[:1])) == 1
