"""Tests for the ``python -m repro.experiments`` CLI."""


from repro.experiments import table2
from repro.experiments.__main__ import RUNNERS, main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "f1^2 o g1^2" in out
        assert "[ok] table2: (degree, depth) per form == paper Tab. 2" in out

    def test_depth(self, capsys):
        assert main(["depth"]) == 0
        out = capsys.readouterr().out
        assert "f1 ∘ g2 depth schedule" in out
        assert "Measured CKKS level consumption" in out
        assert "[ok] depth: f1 o g2: measured levels == analytic depth" in out
        assert "FAIL" not in out

    def test_failed_check_returns_1_and_names_it(self, capsys, monkeypatch):
        monkeypatch.setitem(table2.PAPER_TABLE2, "f1 o g2", (5, 4))
        assert main(["table2"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] table2: (degree, depth) per form == paper Tab. 2" in out
        assert "1 check(s) failed" in out

    def test_unknown_target(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown targets" in capsys.readouterr().out

    def test_default_is_table2(self, capsys):
        assert main([]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_all_targets_registered(self):
        assert set(RUNNERS) == {
            "table2",
            "fig7",
            "fig8",
            "fig9",
            "table3",
            "table4",
            "depth",
        }
