"""Command-line front end: deterministic, diffable `key: value` reports.

Exit codes: 0 when the command's claim holds, 1 for a well-formed negative
result (failed validation, a found counterexample, an empty search), 2 for
input errors such as parse failures, exceeded bounds, or paths that cannot
be read or written.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .errors import PreconditionFailed, SampleShortfallWarning, SemiringError
from .kernel import validate
from .relations import CONGRUENCE_BOUND, enumerate_congruences, is_idempotent_separating
from .structure import decompose
from .classify import THEOREM_IDS, classify, verify_equivalence, verify_ideal_corollary
from .blattice import (
    check_main_theorem_conditions,
    compose,
    search_structure_maps,
    validate_spec,
    CONDITION_KEYS,
)
from .enumeration import (
    ImplicationQuery,
    canonical_hash,
    enumerate_semirings,
    find_counterexample,
    manifest_line,
    sample_semirings,
    write_corpus,
)
from .formats import load_sbl, load_srt, save_srt, serialize_srt


class Report:
    """Ordered unique-key lines, byte-stable for identical inputs."""

    def __init__(self):
        self._lines: list[tuple[str, str]] = []
        self._keys: set[str] = set()

    def add(self, key: str, value) -> None:
        if key in self._keys:
            raise ValueError(f"duplicate report key {key!r}")
        self._keys.add(key)
        self._lines.append((key, str(value)))

    def render(self) -> str:
        return "".join(f"{key}: {value}\n" for key, value in self._lines)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _load(path: str):
    return load_srt(Path(path))


def _load_semiring(path: str):
    """The table of an analysis command, which must satisfy the semiring
    laws: PreconditionFailed names the first failed law and its witness."""
    s = _load(path)
    failures = validate(s).failures
    if failures:
        law, witness = failures[0]
        raise PreconditionFailed(f"{path}: not a semiring: {law} fails at ({', '.join(witness)})")
    return s


def _emit(report: Report) -> None:
    sys.stdout.write(report.render())


def _add_failures(report: Report, failures) -> None:
    for failure in failures:
        report.add(f"failure.{failure.law}", "(" + ", ".join(failure.witness) + ")")


def _cmd_validate(args) -> int:
    s = _load(args.file)
    result = validate(s)
    report = Report()
    report.add("verdict", _bool(result.verdict))
    _add_failures(report, result.failures)
    _emit(report)
    return 0 if result.verdict else 1


def _cmd_classify(args) -> int:
    s = _load_semiring(args.file)
    result = classify(s)
    report = Report()
    report.add("order", s.order)
    report.add("elements", " ".join(s.names))
    for key, verdict in result.verdicts.items():
        report.add(f"class.{key}", _bool(verdict.holds))
        if verdict.evidence:
            report.add(f"class.{key}.evidence", verdict.evidence)
    disagreement = False
    if args.verify_theorems:
        for tr in [*(verify_equivalence(s, theorem) for theorem in THEOREM_IDS), verify_ideal_corollary(s)]:
            for label, holds, _ in tr.conditions:
                report.add(f"theorem.{tr.theorem}.{label}", _bool(holds))
            report.add(f"theorem.{tr.theorem}.agreement", _bool(tr.agreement))
            disagreement = disagreement or not tr.agreement
    _emit(report)
    return 1 if disagreement else 0


def _cmd_decompose(args) -> int:
    s = _load_semiring(args.file)
    d = decompose(s)
    report = Report()
    report.add("classes", d.y_order)
    report.add("quotient.elements", " ".join(d.blattice.names))
    report.add("quotient.is-b-lattice", _bool(d.quotient_is_b_lattice()))
    for alpha in range(d.y_order):
        prefix = f"class.{alpha}"
        report.add(f"{prefix}.element", d.blattice.names[alpha])
        report.add(f"{prefix}.members", " ".join(s.names[i] for i in sorted(d.classes[alpha])))
        report.add(f"{prefix}.kernel", " ".join(s.names[i] for i in sorted(d.kernels[alpha])))
        report.add(f"{prefix}.idempotent", s.names[d.idempotents[alpha]])
        nil = d.nil_indices(alpha)
        report.add(f"{prefix}.nil", " ".join(s.names[i] for i in nil) if nil else "-")
    if args.emit_components:
        outdir = Path(args.emit_components)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = Report()
        save_srt(d.blattice, outdir / "y.srt")
        manifest.add("quotient.file", "y.srt")
        manifest.add("quotient.elements", " ".join(d.blattice.names))
        for alpha in range(d.y_order):
            fname = f"T{alpha}.srt"
            save_srt(d.class_semiring(alpha), outdir / fname)
            manifest.add(f"component.{alpha}.file", fname)
            manifest.add(f"component.{alpha}.element", d.blattice.names[alpha])
            manifest.add(
                f"component.{alpha}.kernel",
                " ".join(s.names[i] for i in sorted(d.kernels[alpha])),
            )
            manifest.add(f"component.{alpha}.idempotent", s.names[d.idempotents[alpha]])
        (outdir / "manifest.txt").write_text(manifest.render(), encoding="utf-8")
        report.add("emitted", str(outdir))
    _emit(report)
    return 0


def _cmd_compose(args) -> int:
    spec = load_sbl(Path(args.file))
    result = validate_spec(spec)
    report = Report()
    report.add("spec-valid", _bool(result.verdict))
    if not result.verdict:
        _add_failures(report, result.failures)
        _emit(report)
        return 1
    composed = compose(spec)
    report.add("order", composed.order)
    report.add("elements", " ".join(composed.names))
    if args.output:
        save_srt(composed, Path(args.output))
        report.add("out", args.output)
    _emit(report)
    if not args.output:
        sys.stdout.write(serialize_srt(composed))
    return 0


def _cmd_maps(args) -> int:
    s = _load_semiring(args.file)
    d = decompose(s)
    maps = search_structure_maps(s)
    report = Report()
    report.add("found", _bool(maps is not None))
    if maps is None:
        _emit(report)
        return 1
    conditions = check_main_theorem_conditions(s, d, maps)
    for key in CONDITION_KEYS:
        report.add(f"condition.{key}", _bool(conditions.verdicts[key]))
    report.add("conditions-all-hold", _bool(conditions.all_hold))
    for (alpha, beta) in sorted(maps.phi):
        if alpha == beta:
            continue
        pair = f"map.{d.blattice.names[alpha]}.{d.blattice.names[beta]}"
        entries = " ".join(
            f"{s.names[x]}->{s.names[maps.phi[(alpha, beta)][x]]}"
            for x in sorted(maps.phi[(alpha, beta)])
        )
        report.add(pair, entries)
    _emit(report)
    return 0


def _cmd_congruences(args) -> int:
    s = _load_semiring(args.file)
    congs = enumerate_congruences(s, bound=args.bound)
    report = Report()
    report.add("count", len(congs))
    for i, cong in enumerate(congs):
        blocks = " ".join(
            "{" + ",".join(s.names[x] for x in sorted(block)) + "}"
            for block in cong.partition.blocks()
        )
        report.add(f"congruence.{i}.blocks", blocks)
        report.add(
            f"congruence.{i}.idempotent-separating",
            _bool(is_idempotent_separating(s, cong)),
        )
    _emit(report)
    return 0


def _cmd_enumerate(args) -> int:
    if args.sample is not None:
        with warnings.catch_warnings(record=True) as caught:
            semirings = sample_semirings(
                args.order, args.sample, seed=args.seed, filter_class=args.klass
            )
        for w in caught:
            if issubclass(w.category, SampleShortfallWarning):
                print(f"warning: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    else:
        semirings = enumerate_semirings(args.order, filter_class=args.klass)
    if args.count_only:
        report = Report()
        report.add("count", len(semirings))
        _emit(report)
        return 0
    if args.out:
        manifest = write_corpus(semirings, args.out)
        sys.stdout.write(manifest)
        return 0
    for s in semirings:
        sys.stdout.write(manifest_line(s) + "\n")
    return 0


def _cmd_counterexample(args) -> int:
    query = ImplicationQuery(
        premise=args.premise, conclusion=args.conclusion, max_order=args.max_order
    )
    witness = find_counterexample(query)
    report = Report()
    report.add("found", _bool(witness is not None))
    if witness is None:
        _emit(report)
        return 0
    report.add("order", witness.order)
    report.add("hash", canonical_hash(witness))
    if args.out:
        save_srt(witness, Path(args.out))
        report.add("out", args.out)
    _emit(report)
    sys.stdout.write(serialize_srt(witness))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiringlab",
        description="finite semiring structure toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the semiring laws of an .srt file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="class predicates and theorem checks")
    p.add_argument("file")
    p.add_argument("--verify-theorems", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="split into classes with skew-ring kernels")
    p.add_argument("file")
    p.add_argument("--emit-components", metavar="DIR")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compose", help="build a semiring from an .sbl spec")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("maps", help="search for a presenting map family")
    p.add_argument("file")
    p.set_defaults(func=_cmd_maps)

    p = sub.add_parser("congruences", help="enumerate semiring congruences")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=CONGRUENCE_BOUND)
    p.set_defaults(func=_cmd_congruences)

    p = sub.add_parser("enumerate", help="generate semirings up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--class", dest="klass", metavar="NAME")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--sample", type=int, metavar="COUNT")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("counterexample", help="search class implications for a witness")
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SemiringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
