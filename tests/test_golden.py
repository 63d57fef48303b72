"""Byte-for-byte checks of CLI reports against the files in tests/golden/.

Each case runs through cli.main with --format json --no-timestamp, so the
report carries no time of day and must match its golden file exactly.  A
change that alters any reported value, key order or number format fails
here; one that is meant to change a report replaces its golden file in the
same change.
"""

from pathlib import Path

import pytest

from cyclocode.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_max_n_16": ["verify", "--max-n", "16"],
    "dim_2_12_3_1_1_verify": ["dim", "--q", "2", "--m", "12", "--t", "3", "--a", "1",
                              "--b", "1", "--verify"],
    "audit_q2-3_m2-5": ["audit", "--grid", "q=2..3;m=2..5"],
    "audit_q5_m10": ["audit", "--grid", "q=5;m=10;t=2..8;a=4;b=1..4"],
    "table_table2": ["table", "--preset", "table2"],
    "bound_certificate_3_4_1_2_1": ["bound", "--certificate", "--q", "3", "--m", "4",
                                    "--t", "1", "--a", "2", "--b", "1"],
    "coset_2_6_3": ["coset", "--q", "2", "--m", "6", "--s", "3"],
    "size_t_3_4_1_2_1": ["size-t", "--q", "3", "--m", "4", "--t", "1", "--a", "2",
                         "--b", "1"],
    **{
        f"gen_poly_{q}_{m}_{delta}": ["gen-poly", "--q", str(q), "--m", str(m),
                                      "--delta", str(delta)]
        for q, m, delta in [(2, 4, 5), (3, 4, 7), (4, 3, 9), (2, 16, 9), (5, 9, 4),
                            (5, 10, 3)]
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    code = main(CASES[name] + ["--format", "json", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.encode() == (GOLDEN / f"{name}.json").read_bytes()
