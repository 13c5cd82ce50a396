import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcond.gf2 import Echelon, Gf2Matrix

matrices = st.builds(
    lambda rows, ncols: Gf2Matrix.from_rows([r & ((1 << ncols) - 1) for r in rows], ncols),
    st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=8),
)


# sparse rows up to 40 x 64: each row sets a few random bits
sparse_matrices = st.integers(min_value=1, max_value=64).flatmap(
    lambda ncols: st.builds(
        lambda rows: Gf2Matrix.from_rows(rows, ncols),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=ncols - 1), max_size=4).map(
                lambda bits: sum(1 << b for b in set(bits))
            ),
            max_size=40,
        ),
    )
)


def dense_rank(m: Gf2Matrix) -> int:
    """Gauss-Jordan elimination on explicit 0/1 lists, column by column."""
    grid = [[(row >> c) & 1 for c in range(m.ncols)] for row in m.rows]
    rank = 0
    for c in range(m.ncols):
        pivot = next((r for r in range(rank, len(grid)) if grid[r][c]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for r in range(len(grid)):
            if r != rank and grid[r][c]:
                grid[r] = [x ^ y for x, y in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def brute_rank(m: Gf2Matrix) -> int:
    images = {0}
    for vec in range(1 << m.nrows):
        images.add(m.apply(vec))
    return len(images).bit_length() - 1


class TestGf2Matrix:
    def test_apply_sums_selected_rows(self):
        m = Gf2Matrix.from_rows([0b01, 0b11], 2)
        assert m.apply(0b00) == 0
        assert m.apply(0b01) == 0b01
        assert m.apply(0b11) == 0b10

    @given(matrices)
    @settings(max_examples=80)
    def test_rank_matches_image_size(self, m):
        assert m.rank() == brute_rank(m)

    @given(sparse_matrices)
    @settings(max_examples=80)
    def test_rank_of_sparse_matrices_matches_dense_elimination(self, m):
        assert m.rank() == dense_rank(m)
        # stacking the rows twice, or in reverse order, keeps the rank
        assert Gf2Matrix.from_rows(m.rows[::-1] + m.rows, m.ncols).rank() == m.rank()

    @given(matrices, matrices)
    @settings(max_examples=60)
    def test_composition_pointwise(self, a, b):
        if a.ncols != b.nrows:
            return
        c = a.then(b)
        for vec in range(1 << min(a.nrows, 6)):
            assert c.apply(vec) == b.apply(a.apply(vec))

    @given(sparse_matrices, st.data())
    @settings(max_examples=80)
    def test_apply_is_the_sum_of_the_selected_rows(self, m, data):
        vec = data.draw(st.integers(min_value=0, max_value=(1 << m.nrows) - 1))
        expected = 0
        for i in range(m.nrows):
            if (vec >> i) & 1:
                expected ^= m.rows[i]
        assert m.apply(vec) == expected

    def test_apply_to_a_single_bit_reads_its_row(self):
        m = Gf2Matrix.from_rows([0b01, 0b11, 0b10], 2)
        for k in range(m.nrows):
            assert m.apply(1 << k) == m.rows[k]
        for vec in (1 << m.nrows, -1):
            with pytest.raises(ValueError, match="not a bitmask over 3 rows"):
                m.apply(vec)

    def test_apply_rejects_bits_outside_the_rows(self):
        m = Gf2Matrix.from_rows([0b01, 0b11], 2)
        for vec in (0b100, 0b101, 1 << 70, -1):
            with pytest.raises(ValueError, match="not a bitmask over 2 rows"):
                m.apply(vec)
        with pytest.raises(ValueError):
            Gf2Matrix.from_rows([], 3).apply(1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Gf2Matrix.from_rows([0, 0], 3).then(Gf2Matrix.from_rows([0, 0], 3))
        with pytest.raises(ValueError):
            Gf2Matrix.from_rows([0, 0], 3) + Gf2Matrix.from_rows([0, 0, 0], 3)


class TestEchelon:
    def test_add_reports_span_growth(self):
        e = Echelon()
        assert e.add(0b01)
        assert e.add(0b10)
        assert not e.add(0b11)
        assert e.dim == 2

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=80),
           st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_many_wide_vectors(self, vecs, rnd):
        # a low-rank family: the first eight vectors and sums of two of them
        gens = vecs[:8]
        family = gens + [
            gens[rnd.randrange(len(gens))] ^ gens[rnd.randrange(len(gens))] for _ in range(40)
        ]
        e = Echelon()
        grew = [e.add(v) for v in family]
        assert e.dim == sum(grew) == dense_rank(Gf2Matrix.from_rows(gens, 64))
        assert e.vectors == [v for v, g in zip(family, grew) if g]

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=6),
           st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=8))
    @settings(max_examples=60)
    def test_membership_matches_dense_rank(self, spanning, probes):
        e = Echelon(spanning)
        for v in spanning + probes:
            in_span = dense_rank(Gf2Matrix.from_rows(e.vectors + [v], 16)) == e.dim
            assert Echelon(spanning).add(v) == (not in_span)
