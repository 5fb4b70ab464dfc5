"""Tests for the cross-layer contract lint."""

from __future__ import annotations

import textwrap

from repro.analyze import Severity
from repro.analyze.contracts import (analyze_contracts, check_fault_sites,
                                     collect_fault_site_uses)


def _rules(rep, severity=None):
    return [d.rule for d in rep.diagnostics
            if severity is None or d.severity is severity]


class TestLiveRepo:
    def test_contracts_clean(self):
        rep = analyze_contracts()
        assert rep.exit_code == 0, rep.render()
        assert not rep.warnings, rep.render()

    def test_fault_sites_bijective(self):
        rep = check_fault_sites()
        assert rep.ok, rep.render()
        msgs = [d.message for d in rep.diagnostics]
        assert any("agree in both directions" in m for m in msgs)


class TestFaultSiteLint:
    def _write(self, tmp_path, body):
        p = tmp_path / "mod.py"
        p.write_text(textwrap.dedent(body))
        return [p]

    def test_unknown_literal_is_an_error(self, tmp_path):
        paths = self._write(tmp_path, """
            from repro.resilience.faults import fault_point

            def f():
                fault_point("engine.typo.fail")
        """)
        rep = check_fault_sites(paths, sites={"real.site": "doc"})
        rules = _rules(rep, Severity.ERROR)
        assert "contract.fault-site-unknown" in rules
        assert "contract.fault-site-unused" in rules

    def test_dynamic_site_is_a_warning(self, tmp_path):
        paths = self._write(tmp_path, """
            def f(faults, name):
                faults.should_inject("known.site")
                faults.should_inject(name)
        """)
        rep = check_fault_sites(paths, sites={"known.site": "doc"})
        assert rep.ok
        assert "contract.fault-site-dynamic" in _rules(rep,
                                                       Severity.WARNING)

    def test_collect_records_position(self, tmp_path):
        paths = self._write(tmp_path, """
            from repro.resilience.faults import fault_point

            fault_point("x.y")
        """)
        uses = collect_fault_site_uses(paths)
        assert len(uses) == 1
        assert uses[0].site == "x.y"
        assert uses[0].call == "fault_point"
        assert uses[0].lineno == 4
