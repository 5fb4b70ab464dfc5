"""Tests for the Report API, the drivers, and the analyze CLI."""

from __future__ import annotations

import pytest

from repro.analyze import (Diagnostic, Report, Severity, analyze_all,
                           analyze_kernels, shipped_kernel_plans)
from repro.cli import main


def _diag(rule="x", sev=Severity.ERROR, subject="k", msg="m", loc=""):
    return Diagnostic(rule=rule, severity=sev, subject=subject,
                      message=msg, location=loc)


class TestReport:
    def test_severity_ordering(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR

    def test_exit_code_follows_errors(self):
        rep = Report()
        assert rep.ok and rep.exit_code == 0
        rep.add(_diag(sev=Severity.WARNING))
        assert rep.ok and rep.exit_code == 0
        rep.add(_diag(sev=Severity.ERROR))
        assert not rep.ok and rep.exit_code == 1

    def test_extend_accepts_report_and_list(self):
        a, b = Report(), Report([_diag()])
        a.extend(b)
        a.extend([_diag(rule="y")])
        assert len(a.diagnostics) == 2

    def test_render_summary_and_location(self):
        rep = Report([_diag(rule="race.write-write", loc="shared[3]")])
        text = rep.render()
        assert "error: [race.write-write] k: m (shared[3])" in text
        assert "analyze: 1 error(s), 0 warning(s), 0 note(s)" in text

    def test_render_quiet_hides_notes(self):
        rep = Report([_diag(sev=Severity.NOTE, msg="chatty")])
        assert "chatty" not in rep.render(verbose=False)
        assert "chatty" in rep.render(verbose=True)

    def test_by_severity_filters_exactly(self):
        rep = Report([_diag(sev=Severity.NOTE),
                      _diag(sev=Severity.WARNING),
                      _diag(sev=Severity.ERROR),
                      _diag(sev=Severity.ERROR, rule="y")])
        assert len(rep.by_severity(Severity.NOTE)) == 1
        assert len(rep.warnings) == 1
        assert [d.rule for d in rep.errors] == ["x", "y"]

    def test_to_dict_round_trips_severity_as_string(self):
        d = _diag(rule="race.ww", sev=Severity.WARNING, loc="g[3]")
        obj = d.to_dict()
        assert obj == {"rule": "race.ww", "severity": "warning",
                       "subject": "k", "message": "m",
                       "location": "g[3]"}

    def test_to_json_summary_and_quiet_filter(self):
        import json

        rep = Report([_diag(sev=Severity.NOTE, msg="chatty"),
                      _diag(sev=Severity.ERROR, msg="broken")])
        obj = json.loads(rep.to_json(verbose=False))
        assert obj["summary"] == {"errors": 1, "warnings": 0,
                                  "notes": 1, "ok": False}
        msgs = [d["message"] for d in obj["diagnostics"]]
        assert msgs == ["broken"]
        full = json.loads(rep.to_json(verbose=True))
        assert len(full["diagnostics"]) == 2

    def test_dedup_preserves_order_and_distinct(self):
        a = _diag(rule="a")
        b = _diag(rule="b")
        rep = Report([a, b, a, a, b]).dedup()
        assert [d.rule for d in rep.diagnostics] == ["a", "b"]
        # distinct locations are NOT duplicates
        rep2 = Report([_diag(loc="x"), _diag(loc="y")]).dedup()
        assert len(rep2.diagnostics) == 2


class TestDrivers:
    def test_shipped_plans_cover_every_kernel(self):
        names = {p.name for p in shipped_kernel_plans()}
        assert names == {
            "sw_wavefront_kernel", "sw_wavefront_kernel_shfl",
            "string_match_kernel", "w2b_kernel", "b2w_kernel",
        }

    def test_shipped_kernels_analyze_clean(self):
        """Regression gate: every shipped kernel passes lint AND a
        traced launch with zero findings."""
        rep = analyze_kernels()
        assert rep.ok, rep.render()

    def test_analyze_all_clean(self):
        """Acceptance: the full analyzer exits 0 on the shipped
        artifacts."""
        rep = analyze_all()
        assert rep.exit_code == 0, rep.render()


class TestCli:
    def test_all_flag_exits_zero(self, capsys):
        assert main(["analyze", "--all", "--quiet"]) == 0
        assert "analyze: 0 error(s)" in capsys.readouterr().out

    def test_default_is_all(self, capsys):
        assert main(["analyze", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "analyze: 0 error(s)" in out

    def test_netlists_only(self, capsys):
        assert main(["analyze", "--netlists"]) == 0
        out = capsys.readouterr().out
        assert "netlist.op-count" in out
        assert "lint.clean" not in out

    def test_racy_fixture_exits_nonzero(self, capsys):
        rc = main(["analyze", "--kernel",
                   "tests.analyze.fixtures:racy_shared_plan"])
        assert rc == 1
        assert "race.read-write" in capsys.readouterr().out

    def test_divergent_fixture_exits_nonzero(self, capsys):
        rc = main(["analyze", "--kernel",
                   "tests.analyze.fixtures:divergent_plan"])
        assert rc == 1
        assert "lint.barrier-divergence" in capsys.readouterr().out

    def test_plain_function_target_lints_only(self, capsys):
        rc = main(["analyze", "--kernel",
                   "tests.analyze.fixtures:nonconst_shfl_kernel"])
        assert rc == 1
        assert "lint.shfl-nonconst-delta" in capsys.readouterr().out

    def test_contracts_flag_and_json_round_trip(self, capsys):
        import json

        assert main(["analyze", "--contracts", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["ok"] is True
        rules = {d["rule"] for d in obj["diagnostics"]}
        assert "contract.fault-sites" in rules

    def test_json_quiet_drops_notes(self, capsys):
        import json

        assert main(["analyze", "--contracts", "--format", "json",
                     "--quiet"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"] == []
        assert obj["summary"]["notes"] > 0

    def test_bad_kernel_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--kernel", "nonsense"])
        with pytest.raises(SystemExit):
            main(["analyze", "--kernel", "no.such.module:thing"])
