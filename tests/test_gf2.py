import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcond.gf2 import Echelon, Gf2Matrix

matrices = st.builds(
    lambda rows, ncols: Gf2Matrix.from_rows([r & ((1 << ncols) - 1) for r in rows], ncols),
    st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=8),
)


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

    @given(matrices, matrices)
    @settings(max_examples=60)
    def test_composition_pointwise(self, a, b):
        if a.ncols != b.nrows:
            return
        c = a.then(b)
        for vec in range(1 << min(a.nrows, 6)):
            assert c.apply(vec) == b.apply(a.apply(vec))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Gf2Matrix.zero(2, 3).then(Gf2Matrix.zero(2, 3))
        with pytest.raises(ValueError):
            Gf2Matrix.zero(2, 3) + Gf2Matrix.zero(3, 3)


class TestEchelon:
    def test_add_reports_span_growth(self):
        e = Echelon()
        assert e.add(0b01)
        assert e.add(0b10)
        assert not e.add(0b11)
        assert e.dim == 2

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=8))
    @settings(max_examples=80)
    def test_express_recovers_combinations(self, vecs):
        e = Echelon()
        for v in vecs:
            e.add(v)
        spanned = {0}
        for v in e.vectors:
            spanned |= {s ^ v for s in spanned}
        for target in itertools.islice(spanned, 32):
            comb = e.express(target)
            assert comb is not None
            recombined = 0
            for pos, v in enumerate(e.vectors):
                if (comb >> pos) & 1:
                    recombined ^= v
            assert recombined == target
        outside = next((v for v in range(64) if v not in spanned), None)
        if outside is not None:
            assert e.express(outside) is None
