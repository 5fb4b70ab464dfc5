"""Cross-layer contract lint: fault-site literals vs the catalogue.

The chaos machinery addresses injection points by string
(``fault_point("shard.worker.crash")``), and
:data:`repro.resilience.faults.SITES` is the catalogue a
:class:`FaultRule` validates against.  But the *call sites* are plain
literals that nothing validates: a typo'd site silently never fires,
and a deleted call site leaves a catalogue entry the chaos suite
thinks it is exercising.  :func:`check_fault_sites` walks the
package's ASTs and holds every literal against the catalogue in both
directions.

It runs in ``python -m repro analyze --contracts`` (and as part of
``--all``); it is pure-Python fast, no netlists involved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .report import Diagnostic, Report, Severity

__all__ = [
    "FaultSiteUse",
    "collect_fault_site_uses",
    "check_fault_sites",
    "analyze_contracts",
]

#: The call names that address a fault site with their first argument.
_FAULT_CALLS = frozenset({"fault_point", "should_inject"})


@dataclass(frozen=True)
class FaultSiteUse:
    """One ``fault_point``/``should_inject`` call found in source."""

    site: str | None  #: the literal site, or None for a dynamic arg
    path: str
    lineno: int
    call: str


def collect_fault_site_uses(paths: Sequence[Path] | None = None,
                            ) -> list[FaultSiteUse]:
    """Every fault-site call in ``paths`` (default: all of
    ``src/repro`` except the defining module itself)."""
    if paths is None:
        root = Path(__file__).resolve().parents[1]
        paths = [p for p in sorted(root.rglob("*.py"))
                 if p.name != "faults.py"]
    uses: list[FaultSiteUse] = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = (fn.id if isinstance(fn, ast.Name)
                    else fn.attr if isinstance(fn, ast.Attribute)
                    else None)
            if name not in _FAULT_CALLS:
                continue
            arg = node.args[0] if node.args else None
            site = (arg.value if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str) else None)
            uses.append(FaultSiteUse(site, str(path), node.lineno,
                                     name))
    return uses


def check_fault_sites(paths: Sequence[Path] | None = None,
                      sites: Mapping[str, str] | None = None) -> Report:
    """Every fault-site literal must be catalogued, and every
    catalogue entry must have a live call site."""
    if sites is None:
        from ..resilience.faults import SITES

        sites = SITES
    rep = Report()
    uses = collect_fault_site_uses(paths)
    used: set[str] = set()
    for use in uses:
        if use.site is None:
            rep.add(Diagnostic(
                rule="contract.fault-site-dynamic",
                severity=Severity.WARNING,
                subject=f"{use.path}:{use.lineno}",
                message=f"{use.call}() called with a non-literal "
                        f"site; the lint cannot validate it against "
                        f"the catalogue"))
            continue
        used.add(use.site)
        if use.site not in sites:
            rep.add(Diagnostic(
                rule="contract.fault-site-unknown",
                severity=Severity.ERROR,
                subject=use.site,
                message=f"{use.call}({use.site!r}) at "
                        f"{use.path}:{use.lineno} is not in "
                        f"resilience.faults.SITES — this site can "
                        f"never be scheduled and silently never "
                        f"fires"))
    for site in sorted(set(sites) - used):
        rep.add(Diagnostic(
            rule="contract.fault-site-unused", severity=Severity.ERROR,
            subject=site,
            message="catalogued in resilience.faults.SITES but no "
                    "fault_point/should_inject literal references it "
                    "— the chaos suite believes it exercises a site "
                    "that no longer exists"))
    if rep.ok and not rep.warnings:
        rep.add(Diagnostic(
            rule="contract.fault-sites", severity=Severity.NOTE,
            subject="resilience.faults.SITES",
            message=f"{len(sites)} catalogued sites and "
                    f"{len(uses)} literal call sites agree in both "
                    f"directions"))
    return rep


def analyze_contracts() -> Report:
    """The contract lint over the live package."""
    return check_fault_sites()
