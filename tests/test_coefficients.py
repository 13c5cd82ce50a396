import json
import re

import pytest

from surfcond.abelian import FinAbGroup, GroupExpr, UnsupportedRangeError
from surfcond.ahss import run_ahss
from surfcond.coefficients import (
    DEFAULT_CAP,
    CoeffOverrides,
    _monomial_names,
    _order2_bits,
    circle_row,
    spectrum,
)
from surfcond.em_cohomology import EmSpace, algebra_for
from surfcond.gf2 import Gf2Matrix

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))
Z6 = FinAbGroup((6,))
Z8 = FinAbGroup((8,))


class TestSpectrumTables:
    def test_supercohomology_layers(self):
        t = spectrum("SH")
        assert str(t.entry(0)) == "C^x"
        assert str(t.entry(1)) == "Z/2"
        assert str(t.entry(2)) == "Z/2"
        assert t.entry(3).is_zero and t.entry(7).is_zero

    def test_superwitt_opaque_layer(self):
        t = spectrum("SW")
        assert t.entry(4).opaque == ("SW",)
        assert t.entry(5).is_zero

    def test_spin_circle_layer(self):
        t = spectrum("Spin")
        assert t.entry(4).circle_rank == 1

    def test_twisted_variant_same_entries(self):
        # the twist changes SW's d2, not its table: a twisted run reads SW's
        plain, tw = (run_ahss(Z2, 2, "SW", 5, twist=twist)[0] for twist in (False, True))
        assert plain.spectrum is tw.spectrum is spectrum("SW")
        assert tw.twisted and not plain.twisted
        with pytest.raises(UnsupportedRangeError, match="unknown spectrum"):
            spectrum("SW_twisted_by_Z2F")

    def test_unknown_and_out_of_range(self):
        with pytest.raises(UnsupportedRangeError):
            spectrum("KO")
        with pytest.raises(UnsupportedRangeError):
            spectrum("Spin").entry(9)
        assert spectrum("SH").entry(-1).is_zero


class TestMemo:
    """Each table is built once per key, however its arguments are spelled."""

    def test_spectrum_once_per_key(self):
        assert spectrum("SW") is spectrum("SW", None)
        assert spectrum("SW") is not spectrum("SH")

    def test_circle_row_shared_with_the_run(self):
        # condense asks for circle_row(E, n); assemble_e2 passes the overrides
        assert run_ahss(Z2, 2, "SW", 5)[0].circle is circle_row(Z2, 2)
        assert circle_row(Z2, 2) is circle_row(Z2, 2, None)

    def test_overrides_key_their_own_tables(self):
        ov = CoeffOverrides(circle_overrides={("Z/2", 2): {5: GroupExpr.zero()}})
        assert circle_row(Z2, 2, ov) is circle_row(Z2, 2, ov) is not circle_row(Z2, 2)
        assert circle_row(Z2, 2, ov).entry(5).is_zero and not circle_row(Z2, 2).entry(5).is_zero

    def test_a_build_that_raises_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(UnsupportedRangeError, match="not 3"):
                circle_row(Z2, 3)


class TestCircleRows:
    def test_degree2_base_values(self):
        row = circle_row(Z2, 2)
        assert str(row.entry(2)) == "Z/2"  # dual(E)
        assert str(row.entry(4)) == "Z/4"  # Quad(Z/2, circle)
        assert str(row.entry(5)) == "Z/2"
        assert str(row.entry(6)) == "Z/2"
        assert row.entry(1).is_zero and row.entry(3).is_zero

    def test_degree2_larger_cyclic(self):
        assert str(circle_row(Z4, 2).entry(4)) == "Z/8"
        assert str(circle_row(FinAbGroup((8,)), 2).entry(4)) == "Z/16"
        assert str(circle_row(Z4, 2).entry(5)) == "Z/2"

    def test_degree2_odd_cyclic(self):
        row = circle_row(Z3, 2)
        assert str(row.entry(2)) == "Z/3"
        assert row.entry(5).is_zero

    def test_degree4_row(self):
        row = circle_row(Z4, 4)
        assert str(row.entry(4)) == "Z/4"
        assert str(row.entry(6)) == "Z/2"
        assert str(row.entry(7)) == "Z/2"  # dual of the 2-torsion subgroup
        assert str(circle_row(Z6, 4).entry(7)) == "Z/2"
        assert circle_row(Z3, 4).entry(7).is_zero

    def test_trivial_group_degree4_row_is_a_point(self):
        # 0 has no invariant factor, so it is cyclic with no 2-part, as Z/3 is
        row = circle_row(FinAbGroup(()), 4)
        assert all(row.entry(i).is_zero for i in range(1, DEFAULT_CAP + 1))
        assert row.provenance[6] == "K(0, n) is a point"

    def test_negative_degree_is_zero(self):
        assert circle_row(Z4, 2).entry(-1).is_zero

    def test_out_of_table_raises(self):
        row = circle_row(Z4, 2)
        with pytest.raises(UnsupportedRangeError):
            row.entry(6)
        with pytest.raises(UnsupportedRangeError):
            circle_row(Z2, 3)


def class_matrix(alg, cls) -> Gf2Matrix:
    """One-row matrix whose image is the class cls."""
    return Gf2Matrix.from_rows([alg.coordinates(cls)], alg.dimension(cls.degree))


class TestComparisonMap:
    def test_fundamental_class_hits_order_two_element(self):
        alg = algebra_for(EmSpace.from_group(Z4, 2), DEFAULT_CAP)
        iota = alg.fundamental_class()
        comp = circle_row(Z4, 2).comparison_matrix(alg, 2, class_matrix(alg, iota))
        assert comp.ncols == 1  # one bit per factor: the order-2 element of Z/4
        assert comp.apply(alg.coordinates(iota)) == 0b1

    def test_zero_class_maps_to_none(self):
        # a zero source reads neither the declared data nor the entry
        alg = algebra_for(EmSpace.from_group(Z4, 2), DEFAULT_CAP)
        row = circle_row(Z4, 2)
        comp = row.comparison_matrix(alg, 6, class_matrix(alg, alg.zero_class(6)))
        assert comp.is_zero and comp.ncols == 0

    def test_cancelling_sum_maps_to_none(self):
        # a declared-zero monomial needs no entry coordinates
        alg = algebra_for(EmSpace.from_group(Z2, 2), DEFAULT_CAP)
        iota = alg.fundamental_class()
        sq1_sq = alg.sq(1, iota) * alg.sq(1, iota)
        comp = circle_row(Z2, 2).comparison_matrix(alg, 6, class_matrix(alg, sq1_sq))
        assert comp.apply(alg.coordinates(sq1_sq)) == 0

    def test_undeclared_class_raises(self):
        alg = algebra_for(EmSpace.from_group(Z2, 2), DEFAULT_CAP)
        iota = alg.fundamental_class()
        with pytest.raises(UnsupportedRangeError,
                           match=re.escape("no comparison data into H^3(K(Z/2,2); C^x)")):
            circle_row(Z2, 2).comparison_matrix(alg, 3, class_matrix(alg, alg.sq(1, iota)))

    @pytest.mark.parametrize("n, name", [(2, "Sq1(i2)*Sq2 Sq1(i2)"), (4, "i4^2")])
    def test_classes_with_a_nonzero_image_are_not_declared_zero(self, n, name):
        # Sq1(Sq1(i2)*Sq2 Sq1(i2)) = Sq1(i2)^3 != 0, and Browder's
        # beta_2(i4^2) = i4*Sq1(i4) + Sq4 Sq1(i4) != 0: a source reaching
        # either class must stop, not read a zero image
        alg = algebra_for(EmSpace.from_group(Z2, n), DEFAULT_CAP)
        names = [alg.format_monomial(m) for m in alg.basis(8)]
        source = Gf2Matrix.from_rows([1 << names.index(name)], len(names))
        row = circle_row(Z2, n)
        with pytest.raises(UnsupportedRangeError,
                           match=re.escape(f"comparison image of {name} in degree 8 not declared")):
            row.comparison_matrix(alg, 8, source)
        others = sum(1 << pos for pos, other in enumerate(names) if other != name)
        row.comparison_matrix(alg, 8, Gf2Matrix.from_rows([others], len(names)))

    @pytest.mark.parametrize("factors, degree2, degree4", [
        ((6,), {"i2": (3,)}, {"i2^2": (6,)}),
        ((3, 6), {"i2'": (0, 3)}, {"i2'^2": (0, 0, 6)}),
        ((3, 12), {"i2'": (0, 6)}, {"i2'^2": (0, 0, 12)}),
    ])
    def test_cyclic_two_part_declares_degrees_two_and_four(self, factors, degree2, degree4):
        # one mod-2 class in degree 2, named from the algebra: after K(Z/3,2)
        # it is i2'; it hits the order-2 element of dual(E), its square that
        # of Quad(E, C^x)
        row = circle_row(FinAbGroup(factors), 2)
        assert (row.comparison[2], row.comparison[4]) == (degree2, degree4)

    @pytest.mark.parametrize("factors", [(3,), (3, 3), (2, 2), (2, 6)])
    def test_no_comparison_data_without_a_cyclic_two_part(self, factors):
        assert circle_row(FinAbGroup(factors), 2).comparison == {}

    def test_image_outside_two_torsion_rejected(self):
        alg = algebra_for(EmSpace.from_group(Z4, 2), DEFAULT_CAP)
        iota = alg.fundamental_class()
        # a generator of Z/4, not of order 2
        overrides = CoeffOverrides(comparison_overrides={("Z/4", 2, 2): {"i2": (1,)}})
        row = circle_row(Z4, 2, overrides)
        with pytest.raises(ValueError, match="not 2-torsion"):
            row.comparison_matrix(alg, 2, class_matrix(alg, iota))

    def test_order2_bits_one_bit_per_factor(self):
        # an image of the wrong length: tests/test_defects.py
        assert _order2_bits(FinAbGroup((2, 8)), (1, 4)) == 0b11
        assert _order2_bits(FinAbGroup((2, 8)), (0, 4)) == 0b10

    def test_entry_modulo_reads_the_bits_back(self):
        # bit pos names half the pos-th invariant factor of the entry, as
        # _order2_bits writes it: H^2(K(Z/2 x Z/4, 2); C^x) = Z/2 x Z/4
        row = circle_row(FinAbGroup((2, 4)), 2)
        assert row.entry_modulo(2, None) == row.entry(2) == GroupExpr.of(FinAbGroup((2, 4)))
        assert row.entry_modulo(2, Gf2Matrix.from_rows([0], 2)) == row.entry(2)
        assert row.entry_modulo(2, Gf2Matrix.from_rows([0b01], 2)) == GroupExpr.of(Z4)
        assert row.entry_modulo(2, Gf2Matrix.from_rows([0b10, 0b10], 2)) == GroupExpr.of(
            FinAbGroup((2, 2)))
        assert row.entry_modulo(2, Gf2Matrix.from_rows([0b01, 0b10], 2)) == GroupExpr.of(
            FinAbGroup((2,)))


class TestMonomialNames:
    @pytest.mark.parametrize("n", [2, 4])
    def test_names_do_not_depend_on_the_cap(self, n):
        for order in range(1, 33):
            E = FinAbGroup.from_factors([order])
            full = algebra_for(EmSpace.from_group(E, n), DEFAULT_CAP)
            for degree in range(DEFAULT_CAP + 1):
                expected = [full.format_monomial(m) for m in full.basis(degree)]
                assert _monomial_names(E, n, degree) == expected, (order, degree)

    def test_circle_row_builds_no_default_cap_algebra(self):
        # its degree-5 names come from an algebra of cap 5
        algebra_for.cache_clear()
        circle_row(Z8, 2)
        hits = algebra_for.cache_info().hits
        algebra_for(EmSpace.from_group(Z8, 2), DEFAULT_CAP)
        assert algebra_for.cache_info().hits == hits


class TestOverrides:
    def test_round_trip_through_json(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(
            json.dumps(
                {
                    "spectrum": {"SW": {"4": "Z/2"}},
                    "circle_row": {"Z/2|2": {"5": "0"}},
                    "comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": None}},
                }
            )
        )
        ov = CoeffOverrides.load(str(path))
        t = spectrum("SW", ov)
        assert str(t.entry(4)) == "Z/2"
        assert "[override]" in t.provenance[4]
        row = circle_row(Z2, 2, ov)
        assert row.entry(5).is_zero
        assert row.comparison[5]["Sq2 Sq1(i2)"] is None
        assert t.notes == ("override: spectrum SW degree 4 -> Z/2",)
        assert any("override" in n for n in row.notes)

    def test_expr_parsing_variants(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"spectrum": {"SH": {"3": "Z/2 x C^x"}}}))
        t = spectrum("SH", CoeffOverrides.load(str(path)))
        e = t.entry(3)
        assert e.circle_rank == 1 and str(e.finite) == "Z/2"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"spectrm": {"SW": {"4": "Z/2"}}}))
        with pytest.raises(ValueError, match="spectrm"):
            CoeffOverrides.load(str(path))
        path.write_text(json.dumps([["spectrum"]]))
        with pytest.raises(ValueError, match="JSON object"):
            CoeffOverrides.load(str(path))

    def test_unknown_spectrum_rejected(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"spectrum": {"SWW": {"4": "0"}, "SW": {"4": "0"}}}))
        with pytest.raises(ValueError, match="unknown spectra .*: SWW$"):
            CoeffOverrides.load(str(path))
        # the twist is a flag of the run, not a spectrum with a table
        path.write_text(json.dumps({"spectrum": {"SW_twisted_by_Z2F": {"4": "0"}}}))
        with pytest.raises(ValueError, match="unknown spectra .*: SW_twisted_by_Z2F$"):
            CoeffOverrides.load(str(path))

    def test_sw_override_reaches_the_twisted_run(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"spectrum": {"SW": {"4": "Z/2"}}}))
        ov = CoeffOverrides.load(str(path))
        note = "override: spectrum SW degree 4 -> Z/2"
        t = spectrum("SW", ov)
        assert t.notes == (note,)
        assert str(t.entry(4)) == "Z/2"
        assert t.provenance[4] == "SW^4(pt) = Z/2 [override]"
        for twist in (False, True):
            page3, report = run_ahss(Z2, 2, "SW", 4, twist=twist, overrides=ov)
            assert page3.spectrum is t
            assert {"kind": "override", "note": note} in [dict(r) for r in page3.log]
            assert (0, 4, "Z/2") in report.entries and not report.inconclusive

    def test_loaded_tables_are_read_only(self, tmp_path):
        # a loaded file keys the run_ahss memo by identity: an edit to it
        # would leave the memo's runs stale
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({
            "spectrum": {"SW": {"4": "Z/2"}},
            "circle_row": {"Z/2|2": {"5": "0"}},
            "comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": None}},
        }))
        ov = CoeffOverrides.load(str(path))
        report = run_ahss(Z2, 2, "SW", 4, overrides=ov)[1]
        for tables, key, inner in ((ov.spectrum_overrides, "SW", 4),
                                   (ov.circle_overrides, ("Z/2", 2), 5),
                                   (ov.comparison_overrides, ("Z/2", 2, 5), "Sq2 Sq1(i2)")):
            with pytest.raises(TypeError):
                tables[key][inner] = None
            with pytest.raises(TypeError):
                tables[key] = {}
        assert run_ahss(Z2, 2, "SW", 4, overrides=ov)[1] is report
        assert (0, 4, "Z/2") in report.entries

    def test_notes_do_not_accumulate(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"circle_row": {"Z/2|2": {"5": "0"}}}))
        ov = CoeffOverrides.load(str(path))
        first, second = circle_row(Z2, 2, ov), circle_row(Z2, 2, ov)
        assert first.notes == second.notes == ("override: circle row (Z/2, 2) degree 5 -> 0",)
        assert circle_row(Z4, 2, ov).notes == ()

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"spectrum": {"SW": ["4"]}}, "override spectrum['SW'] must be a JSON object"),
            ({"circle_row": ["Z/2|2"]}, "override section 'circle_row' must be a JSON object"),
            ({"comparison": {"Z/2|2|5": "i2"}}, "override comparison['Z/2|2|5'] must be"),
            ({"circle_row": {"Z/2": {"5": "0"}}}, "circle_row key 'Z/2' is not of the form group|n"),
            ({"circle_row": {"Z/2|two": {"5": "0"}}}, "circle_row key 'Z/2|two' is not of"),
            ({"comparison": {"Z/2|2": {"i2": None}}}, "comparison key 'Z/2|2' is not of the form"),
            ({"comparison": {"Z/2|2|five": {}}}, "comparison key 'Z/2|2|five' is not of"),
            ({"spectrum": {"SW": {"four": "0"}}}, "spectrum['SW']: degree key 'four' is not"),
            ({"circle_row": {"Z/2|2": {"5.5": "0"}}}, "circle_row['Z/2|2']: degree key '5.5'"),
            ({"spectrum": {"SW": {"4": 0}}}, "spectrum['SW']['4']: value must be"),
            ({"circle_row": {"Z/2|2": {"5": "Z/x"}}}, "circle_row['Z/2|2']['5']: cannot parse"),
            ({"comparison": {"Z/2|2|5": {"i2": 1}}}, "comparison['Z/2|2|5']['i2']: image must"),
            # degrees outside the table used to be padded with zeros or never read
            ({"spectrum": {"SW": {"10": "Z/2"}}}, "spectrum['SW']: degree 10 is outside 0..8"),
            ({"spectrum": {"Spin": {"8": "Z/2"}}}, "spectrum['Spin']: degree 8 is outside 0..7"),
            ({"spectrum": {"SH": {"-1": "Z/2"}}}, "spectrum['SH']: degree -1 is outside 0..8"),
            ({"circle_row": {"Z/2|2": {"13": "0"}}}, "circle_row['Z/2|2']: degree 13 is outside"),
            ({"comparison": {"Z/2|2|13": {"x": None}}}, "key 'Z/2|2|13': degree 13 is outside"),
            ({"comparison": {"Z/2|2|-1": {}}}, "key 'Z/2|2|-1': degree -1 is outside 2..12"),
        ],
        ids=[
            "table-list", "section-list", "comparison-table-string", "row-key-no-n",
            "row-key-bad-n", "comparison-key-no-degree", "comparison-key-bad-degree",
            "degree-word", "degree-float", "value-int", "value-literal", "image-int",
            "spectrum-above-table", "spin-above-table", "spectrum-negative",
            "row-above-cap", "comparison-above-cap", "comparison-negative",
        ],
    )
    def test_malformed_shape_names_section_and_key(self, tmp_path, raw, message):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=re.escape(message)):
            CoeffOverrides.load(str(path))

    def test_degrees_at_the_table_edge_accepted(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({
            "spectrum": {"SW": {"8": "Z/2"}, "Spin": {"0": "C^x"}},
            "circle_row": {"Z/2|2": {"12": "0"}},
            "comparison": {"Z/2|2|12": {}},
        }))
        ov = CoeffOverrides.load(str(path))
        assert str(spectrum("SW", ov).entry(8)) == "Z/2"
        assert spectrum("SW", ov).max_degree == 8
        assert circle_row(Z2, 2, ov).entry(12).is_zero

    def test_values_read_with_the_group_grammar(self, tmp_path):
        # "×" separates a circle factor as it does a finite one
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"spectrum": {"Spin": {"4": "C^x × Z/2"}}}))
        ov = CoeffOverrides.load(str(path))
        assert spectrum("Spin", ov).entry(4) == GroupExpr(FinAbGroup((2,)), circle_rank=1)

    def test_unknown_comparison_monomial_rejected(self, tmp_path):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"comparison": {"Z/2|2|5": {"Sq2 Sq1(i9)": None}}}))
        # refused when the file is loaded, before any row is built
        with pytest.raises(ValueError, match=re.escape("H^5(K(Z/2,2); Z2) is named Sq2 Sq1(i9)")):
            CoeffOverrides.load(str(path))
