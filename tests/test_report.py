"""Report tests: exact-rational ratio tables and the published headline
averages recomputed from the two-decimal property-table values."""

import hashlib
from fractions import Fraction

import pytest

import oracles
from circnet.report import (
    TableEntry,
    average_ratios,
    build_table,
    percent_increase,
    percent_reduction,
    to_csv,
    to_json,
)
from reference_data import PROPERTY_TABLE


class TestBuildTable:
    def test_diameter_inverse_ratio(self):
        table = oracles.printed_tables()[0]  # n=32
        row = next(r for r in table if r.label == "oc-low")
        assert row.d_inv == Fraction(6, 4) and float(row.d_inv) == 1.50

    def test_baseline_row_is_unity(self):
        for table in oracles.printed_tables():
            base = next(r for r in table if r.label == "torus")
            assert (base.d_inv, base.mpl_inv, base.bw_ratio) == (1, 1, 1)

    def test_bw_ratio(self):
        table = oracles.printed_tables()[0]
        row = next(r for r in table if r.label == "hypercube")
        assert row.bw_ratio == Fraction(16, 8) == 2

    def test_missing_baseline(self):
        with pytest.raises(ValueError):
            build_table([("a", TableEntry(8, 3, 2, Fraction(3, 2), 4))], "torus")

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_table(
                [
                    ("torus", TableEntry(8, 3, 2, Fraction(3, 2), 4)),
                    ("other", TableEntry(16, 3, 2, Fraction(3, 2), 4)),
                ],
                "torus",
            )

    def test_permutation_invariant(self):
        records = [
            (row.label, TableEntry(32, row.k, row.diameter, row.mpl, row.bisection))
            for row in PROPERTY_TABLE[32]
        ]
        a = build_table(records, "torus")
        b = build_table(list(reversed(records)), "torus")
        assert a == b


class TestAverages:
    def test_low_degree_diameter_inverse(self):
        d_inv, _, _ = average_ratios(oracles.printed_tables(), "oc-low")
        assert abs(float(d_inv) - 1.58) <= 0.01

    def test_product_diameter_inverse(self):
        d_inv, _, _ = average_ratios(oracles.printed_tables(), "product")
        assert abs(float(d_inv) - 1.68) <= 0.01

    def test_low_degree_mpl_inverse(self):
        _, mpl_inv, _ = average_ratios(oracles.printed_tables(), "oc-low")
        assert abs(float(mpl_inv) - 1.18) <= 0.01

    def test_product_mpl_inverse(self):
        _, mpl_inv, _ = average_ratios(oracles.printed_tables(), "product")
        assert abs(float(mpl_inv) - 1.24) <= 0.01

    def test_high_degree_bw_average_frozen(self):
        # exact value of the published table's high-degree BW ratio average
        _, _, bw = average_ratios(oracles.printed_tables(), "oc-high")
        assert bw == Fraction(2.5) / 6 + Fraction(3) / 6 + Fraction(25, 8) / 6 + Fraction(
            234, 64
        ) / 6 + Fraction(472, 128) / 6 + Fraction(1036, 256) / 6
        assert float(bw) == pytest.approx(3.3359375)

    def test_missing_label(self):
        with pytest.raises(ValueError):
            average_ratios(oracles.printed_tables(), "nonexistent")


class TestPercentHelpers:
    def test_increase(self):
        assert percent_increase(Fraction(67, 20)) == pytest.approx(235.0)

    def test_reduction(self):
        assert percent_reduction(Fraction(158, 100)) == pytest.approx(36.7, abs=0.05)


class TestRendering:
    def test_csv_header_and_rounding(self):
        table = oracles.printed_tables()[0]
        text = to_csv(table)
        lines = text.splitlines()
        assert lines[0] == "n,k,label,D,MPL,BW,d_inv,mpl_inv,bw_ratio"
        row = next(ln for ln in lines if ln.startswith("32,4,oc-low"))
        assert row == "32,4,oc-low,4,2.71,16,1.50,1.14,2.00"

    def test_json_round_trip(self):
        import json

        rows = json.loads(to_json(oracles.printed_tables()[0]))
        assert len(rows) == 5
        assert {r["label"] for r in rows} == {
            "torus", "oc-low", "oc-high", "product", "hypercube",
        }


# sha256 of to_csv and to_json for each printed table, by graph size.
RENDER_SHA256 = {
    32: (
        "53a338e9aaf179d48515da8f6e4874e550a9514ab1224fa2250a65c6121ff0c2",
        "0d78872fd0c9f99121afcb05f54fad2f7c3dcd3473215d612ccb7d98fd30a695",
    ),
    64: (
        "30af902eecbcd0bb79d09967c99d3303466927e0dc482fbe66bf4ab13fdc5ccb",
        "7e46c0c92ec0689b1b935295c083479fbdde84ddeee9891e86fa782e5a449f79",
    ),
    128: (
        "1417e03dd381a4ae8a6df7841b6559eece2f1a9ddb9825885d426879fa750ee0",
        "f42d19a39f1c19efccebab6935696fe4fd322f21e77386d736ee0e1d5ce1341e",
    ),
    256: (
        "ead49fae375808269e01dfe43583f474bfeced67a493f7c951a7933a736c3772",
        "23be4e1a7c8a15c1a740c4ca9f139f5abab9e3669d1355567b88deaa529fcc2a",
    ),
    512: (
        "6941bab361ca24f30b71c4dfbe251d132b9daecd3d9f5eaf9bb5b172fcf32880",
        "8d980b12e15eaddb4e5b65214c30c4557d461f7b17244558d9e476a99aeefceb",
    ),
    1024: (
        "aa2fa2b6bd0268c62d6b1b620294b0902a5e17db240dd5080c62988f2804dd58",
        "0f1354dca50deec7478d4b064c09c3bc5f4e6f3c36ba594862f76060ccdcc81c",
    ),
}


@pytest.mark.parametrize("index", range(len(RENDER_SHA256)))
def test_rendered_tables_digest(index):
    table = oracles.printed_tables()[index]
    csv_sha, json_sha = RENDER_SHA256[table[0].n]
    assert hashlib.sha256(to_csv(table).encode()).hexdigest() == csv_sha
    assert hashlib.sha256(to_json(table).encode()).hexdigest() == json_sha
