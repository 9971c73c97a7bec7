"""Tooling: ``tools/paper_table.py``, the nine cells of the paper's comparison."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import paper_table  # noqa: E402
from test_golden_logs import GOLDEN, GOLDEN_REQUESTS  # noqa: E402


@pytest.fixture(scope="module")
def rows():
    return paper_table.run_table([1, 2], workers=1)


def test_rows_come_in_cell_order_then_seed_order(rows):
    names = [paper_table.cell_name(cell) for cell in paper_table.CELLS]
    assert [(r["cell"], r["seed"]) for r in rows] == [(n, s) for n in names for s in (1, 2)]


def test_a_row_carries_the_golden_log_and_request_count(rows):
    # The golden cases run seed 1 through the same harness, and count the
    # requests around the same method.
    for (scenario, agents, mode), sha in GOLDEN.items():
        row = next(r for r in rows if r["cell"] == f"{scenario}/{agents}/{mode}" and r["seed"] == 1)
        assert row["sha256"] == sha
        assert row["reasoner_calls"] == GOLDEN_REQUESTS[(scenario, agents, mode)][0]
        assert row["prompt_chars"] > 0


def test_counting_leaves_the_reasoner_unwrapped(rows):
    assert paper_table.layers.leftover_wrappers() == []


def test_the_combined_digest_hashes_the_log_digests_in_order(rows):
    joined = "".join(r["sha256"] for r in rows)
    assert paper_table.digest(rows) == hashlib.sha256(joined.encode()).hexdigest()
    assert paper_table.digest(rows) != paper_table.digest(rows[::-1])


def test_the_bootstrap_interval_is_reproducible_and_brackets_the_mean():
    diffs = [float(x % 7 - 3) for x in range(100)]
    mean, low, high = paper_table.paired_interval(diffs)
    assert paper_table.paired_interval(diffs) == (mean, low, high)
    assert low <= mean <= high
    assert paper_table.paired_interval([5.0] * 10) == (5.0, 5.0, 5.0)


def test_differences_need_the_same_seeds():
    before = [{"seed": 1, "frames": 10}, {"seed": 2, "frames": 20}]
    after = [{"seed": 1, "frames": 12}, {"seed": 2, "frames": 17}]
    assert paper_table.differences(after, before, "frames") == [2, -3]
    with pytest.raises(ValueError):
        paper_table.differences(after[:1], before[1:], "frames")


def test_the_summary_reports_rejections_by_mean_median_and_worst_seed():
    rows = [
        {"cell": "c", "seed": s, "sha256": "0" * 64, **dict.fromkeys(paper_table.COLUMNS, 1), "rejected": r}
        for s, r in ((1, 0), (2, 9), (3, 1), (4, 9))
    ]
    row = paper_table.summarize(rows)["c"]
    assert row["rejected"] == pytest.approx(4.75)
    assert row["rejected_median"] == 5
    assert row["rejected_worst"] == {"seed": 2, "rejected": 9}


def test_a_compared_cell_with_other_logs_gets_paired_intervals(rows):
    before = {"cells": paper_table.summarize(rows), "rows": json.loads(json.dumps(rows))}
    after = [dict(r) for r in rows]
    for r in after:
        if r["cell"] == "stuff_small/4/always":
            r["sha256"] = "f" * 64
            r["frames"] -= 10
    compared = paper_table.compare(after, before)
    assert [n for n, c in compared.items() if not c["same_digest"]] == ["stuff_small/4/always"]
    assert compared["stuff_small/4/always"]["frames"] == (-10.0, -10.0, -10.0)
    assert compared["stuff_small/4/always"]["tokens"] == (0.0, 0.0, 0.0)
    assert all("frames" not in c for n, c in compared.items() if c["same_digest"])


def test_every_compared_cell_gets_its_change_in_the_bill(rows):
    # Fewer requests with the same logs: the digest agrees, and only the
    # bill columns show the change.
    before = {"cells": paper_table.summarize(rows), "rows": json.loads(json.dumps(rows))}
    after = [dict(r) for r in rows]
    cell = "food_small/2/never"
    for r in after:
        if r["cell"] == cell:
            r["reasoner_calls"] -= 5
            r["prompt_chars"] /= 2
    compared = paper_table.compare(after, before)
    assert all(c["same_digest"] for c in compared.values())
    calls = before["cells"][cell]["reasoner_calls"]
    assert compared[cell]["reasoner_calls"] == {"change": -5, "percent": pytest.approx(-500 / calls)}
    chars = compared[cell]["prompt_chars"]
    assert chars["change"] == pytest.approx(-before["cells"][cell]["prompt_chars"] / 2)
    assert chars["percent"] == pytest.approx(-50)
    for name, c in compared.items():
        if name != cell:
            assert c["reasoner_calls"] == c["prompt_chars"] == {"change": 0, "percent": 0}
    lines = paper_table.report({}, {}, compared, "0").splitlines()
    [line] = [line for line in lines if line.startswith(cell)]
    assert f"calls    -5.0 ({-500 / calls:+5.1f}%)" in line
    assert "(-50.0%)" in line and line.endswith("same digest")


def test_the_json_record_holds_one_row_a_line_and_reads_back(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert paper_table.main(["--seeds", "1-1", "--workers", "1", "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(out.read_text())
    assert printed[-1] == f"combined digest: {record['combined_digest']}"
    assert len(record["rows"]) == 9
    assert sum(line.startswith('  {"cell"') for line in out.read_text().splitlines()) == 9
    assert paper_table.main(
        ["--seeds", "1-1", "--workers", "1", "--compare", str(out), "--json", str(out)]
    ) == 0
    compared = json.loads(out.read_text())["compared"]
    assert all(c["same_digest"] for c in compared.values())
    assert all(c[col]["change"] == 0 for c in compared.values() for col in paper_table.BILL)
