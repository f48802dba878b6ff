"""The per-item work of each workload together with its output check.

Every function takes the `semiringlab` package as an argument and calls it
through attribute lookups at call time, so the tracer's wrappers, installed
into the package namespaces, see every call.
"""

from __future__ import annotations

import hashlib
import sys

SAQCI = "strongly-additively-quasi-completely-inverse"


def module(name: str):
    """A loaded semiringlab submodule, looked up at call time."""
    return sys.modules[f"semiringlab.{name}"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _bits(conditions) -> str:
    return "".join("1" if holds else "0" for _, holds, _ in conditions)


def sweep_member(sl, s) -> tuple[bool, str]:
    """Run every verifier on one semiring.

    Returns whether every theorem's conditions agreed (and, on SAQCI members,
    whether psi is a homomorphism and a found family meets the main theorem's
    conditions), plus a verdict string that is invariant under relabelling.
    """
    report = sl.classify(s)
    parts = ["".join("1" if v.holds else "0" for v in report.verdicts.values())]
    ok = True
    theorems = [sl.verify_equivalence(s, t) for t in module("classify").THEOREM_IDS]
    theorems.append(sl.verify_ideal_corollary(s))
    theorems.append(sl.check_generalized_clifford_theorem(s))
    for r in theorems:
        ok = ok and r.agreement
        parts.append(f"{r.theorem}:{_bits(r.conditions)}")
    if report.holds(SAQCI):
        d = sl.decompose(s)
        maps = sl.search_structure_maps(s)
        psi_ok = sl.check_psi_homomorphism(s, d)
        ok = ok and psi_ok
        parts.append(f"psi:{int(psi_ok)}")
        if maps is None:
            parts.append("maps:none")
        else:
            conditions = sl.check_main_theorem_conditions(s, d, maps)
            ok = ok and conditions.all_hold
            parts.append("maps:" + "".join(str(int(v)) for v in conditions.verdicts.values()))
    return ok, ";".join(parts)


def corpus_order4(sl, outdir) -> tuple[int, str]:
    """Exhaustive order-4 enumeration written out as a corpus; returns the
    member count and the MANIFEST sha256."""
    reps = sl.enumerate_semirings(4)
    manifest = module("enumeration").write_corpus(reps, outdir)
    return len(reps), hashlib.sha256(manifest.encode("utf-8")).hexdigest()


def sample_members_ok(sl, members, order: int, count: int) -> tuple[bool, set]:
    """Check one sample_semirings result: exactly `count` members came back,
    each validates at the requested order, and their canonical forms are
    pairwise distinct. Returns the verdict and the forms."""
    forms = {sl.canonical_form(s) for s in members}
    ok = (
        len(members) == count
        and len(forms) == count
        and all(s.order == order and sl.validate(s).verdict for s in members)
    )
    return ok, forms
