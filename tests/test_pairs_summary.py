"""The gain rule `make bench-e2e-compare` prints, on made-up pairs."""

import json

from benchmarks.pairs_summary import load_pairs, main, summarize


def test_gain_rule_needs_nine_tenths_of_ten_pairs_and_a_clear_median():
    parent = [4.0, 4.2, 4.1, 4.3, 4.0, 4.4, 4.2, 4.1, 4.3, 4.2]
    change = [value - 1.0 for value in parent]
    row = summarize(parent, change, "lower")
    assert (row["won"], row["lost"], row["pairs"]) == (10, 0, 10)
    assert row["holds"]
    assert row["parent"][0] == 4.2 and row["change"][0] == 3.2
    # The same numbers are a loss for a metric where higher is better.
    assert not summarize(parent, change, "higher")["holds"]
    assert summarize(parent, change, "higher")["lost"] == 10
    # Nine pairs never hold, however clear; nor do 8 wins of 10.
    assert not summarize(parent[:9], change[:9], "lower")["holds"]
    mixed = change[:8] + [value + 1.0 for value in parent[8:]]
    assert summarize(parent, mixed, "lower")["won"] == 8
    assert not summarize(parent, mixed, "lower")["holds"]
    # Every pair won, but by less than the parent's own quartile
    # distance (0.175 here): not a gain anyone could tell from noise.
    close = [value - 0.1 for value in parent]
    row = summarize(parent, close, "lower")
    assert row["won"] == 10 and not row["holds"]
    # A tie counts for neither side.
    tied = summarize(parent, [parent[0]] + change[1:], "lower")
    assert (tied["won"], tied["lost"]) == (9, 0) and tied["holds"]


def test_reads_the_directories_the_makefile_target_writes(tmp_path, capsys):
    for pair in range(1, 11):
        for side, observe in (("parent", 4.0 + pair / 100), ("change", 3.0)):
            directory = tmp_path / side / str(pair)
            directory.mkdir(parents=True)
            metrics = {
                "rows_per_s": 9000.0 if side == "parent" else 9000.0 + pair,
                "predict_ms_p50": 0.9,
                "observe_ms_p50": observe,
                "proactive_ms_p50": 6.0,
                "setup_s": 2.0,
                "peak_rss_mb": 75.0,
            }
            (directory / "url_continuous.json").write_text(
                json.dumps({"end_to_end": metrics})
            )
    (tmp_path / "parent" / "11").mkdir()  # a pair that never finished
    assert len(load_pairs(tmp_path)["url_continuous"]) == 10
    assert main([str(tmp_path)]) == 0
    lines = {
        line.split()[0]: line for line in capsys.readouterr().out.splitlines()
    }
    assert "summary over 10 pair(s), url_continuous" in lines["summary"]
    assert "won 10/10 (lost 0)  gain rule: holds" in lines["observe_ms_p50"]
    assert "won 10/10" in lines["rows_per_s"]
    assert "won 0/10 (lost 0)  gain rule: does not hold" in (
        lines["predict_ms_p50"]
    )
