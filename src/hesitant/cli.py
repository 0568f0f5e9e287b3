"""Command-line interface.

Subcommands:

    relate FILE A B          per-element relation profiles and set verdicts
    ops FILE EXPR            evaluate an ∪/∩/ᶜ expression over named sets
    rank FILE SET --kind k   pairwise ranking of one set's schemes
    check [...]              run the law suite
    counterexamples [ID]     replay the refuted-law fixtures with full traces
    ingest TABLE -o FILE     build a document from an expert score table

Exit status: 0 on success, 1 when a check or replay fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import __version__
from .errors import HesitantError

# Each command imports what it uses when it runs, so `relate` and `ops` load
# neither the law registry nor ranking nor ingest.


def _read_document(path: str):
    from .document import load_document

    with open(path, "rb") as handle:
        return load_document(handle)


def _fmt_bool(value: bool) -> str:
    return "yes" if value else "no"


# --- relate -----------------------------------------------------------------


def cmd_relate(args) -> int:
    from .relations import Inclusion, relation_profile, set_relation

    doc = _read_document(args.file)
    A, B = doc.hfs(args.set_a), doc.hfs(args.set_b)
    kinds = list(Inclusion)
    print(f"per-element relations {args.set_a}(x) ⊂k {args.set_b}(x):")
    width = max(len(e) for e in doc.universe)
    print(" " * (width + 2) + "  ".join(k.letter for k in kinds) + "  sot")
    for e in doc.universe:
        profile = relation_profile(A[e], B[e])
        row = "  ".join("y" if profile[k] else "." for k in kinds)
        sot = profile.strong_or_tail.letter if profile.strong_or_tail else "-"
        print(f"{e.rjust(width)}  {row}    {sot}")
    print()
    print("set level:")
    for k in kinds:
        fwd = set_relation(k, A, B)
        back = set_relation(k, B, A)
        line = (
            f"  {args.set_a} ⊂{k.letter} {args.set_b}: {_fmt_bool(fwd)}   "
            f"{args.set_b} ⊂{k.letter} {args.set_a}: {_fmt_bool(back)}"
        )
        if k is not Inclusion.TAIL:
            line += f"   {args.set_a} ={k.letter} {args.set_b}: {_fmt_bool(fwd and back)}"
        print(line)
    print(f"  multiset equality: {_fmt_bool(A == B)}")
    return 0


# --- ops ---------------------------------------------------------------------


def cmd_ops(args) -> int:
    from .document import save_document
    from .expressions import evaluate_on_hfs, parse_expression, variables

    doc = _read_document(args.file)
    node = parse_expression(args.expr)
    missing = sorted(v for v in variables(node) if v not in doc.sets)
    if missing:
        print(f"error: unknown set {missing[0]!r}", file=sys.stderr)
        return 2
    result = evaluate_on_hfs(node, doc.hfs)
    name = args.name or "result"
    # The output file is opened before anything is printed, as `rank --dot`
    # opens its DOT file, so a path that cannot be written prints nothing.
    with open(args.output, "wb") if args.output else nullcontext() as handle:
        print(f"{node} =")
        for e, h in result.items():
            print(f"  {e}: {h}")
        if handle is not None:
            handle.write(save_document(doc.with_set(name, result)))
    if args.output:
        print(f"wrote {args.output} with result set {name!r}")
    return 0


# --- rank ---------------------------------------------------------------------


def cmd_rank(args) -> int:
    from .ranking import rank_schemes, ranking_dot_lines, ranking_report
    from .relations import Inclusion

    doc = _read_document(args.file)
    scores = doc.hfs(args.set)
    kind = Inclusion.from_letter(args.kind)
    ranking = rank_schemes(scores, kind)
    # The DOT file is opened first, so a path that cannot be written fails
    # before any of the report is. The report and the DOT are written piece
    # by piece: at thousands of schemes each runs to tens of megabytes, and
    # no full copy of either is held.
    with open(args.dot, "w", encoding="utf-8") if args.dot else nullcontext() as dot:
        sys.stdout.writelines(ranking_report(ranking))
        if dot is not None:
            dot.writelines(ranking_dot_lines(ranking))
    if args.dot:
        print(f"wrote strict-order graph to {args.dot}")
    return 0


# --- check ---------------------------------------------------------------------


def _config(args):
    """The run's `GeneratorConfig`: its defaults where a flag is not given."""
    from .laws.engine import GeneratorConfig

    given = {"seed": args.seed, "trials": args.trials, "degree_grid": args.grid}
    return GeneratorConfig(**{key: value for key, value in given.items() if value is not None})


def cmd_check(args) -> int:
    from ._kernel import IMPLEMENTATION
    from .laws.engine import run_suite
    from .laws.registry import LawStatus

    config = _config(args)
    # The report file is opened first, so a path that cannot be written
    # fails before any law runs.
    with open(args.report, "wb") if args.report else nullcontext() as handle:
        report = run_suite(config, law_ids=args.law, workers=args.workers)
        if handle is not None:
            handle.write(report.canonical_json())
    for result in report.results:
        flags = []
        if result.status == LawStatus.PROVED.value:
            flags.append(f"{result.trials} trials")
            if result.violations:
                flags.append(f"{result.violations} VIOLATIONS")
        else:
            confirmed = sum(1 for f in result.fixtures if f.confirmed)
            flags.append(f"{confirmed}/{len(result.fixtures)} fixtures falsify")
        if result.starved:
            flags.append(f"starved {result.starved} (warning)")
        status = "ok " if result.ok else "FAIL"
        print(f"{status} {result.law_id:<32} {', '.join(flags)}")
    if report.starved_laws:
        print(f"warning: starved guards on: {', '.join(report.starved_laws)}")
    print(
        f"{'PASS' if report.ok else 'FAIL'}: {len(report.results)} laws, "
        f"seed {config.seed}, {config.trials} trials/law, grid 1/{config.degree_grid}, "
        f"{report.elapsed:.1f}s ({IMPLEMENTATION} kernel)"
    )
    if args.report:
        print(f"wrote report to {args.report}")
    return 0 if report.ok else 1


# --- counterexamples -------------------------------------------------------------


def _spec_detail(spec, slot, alg, plain, universe) -> list[str]:
    """Describe the two sides of a claim/guard (a `Rel`) on one grid binding,
    its params at `slot`."""
    from .degrees import render_rational
    from .elements import HFE
    from .laws.registry import at
    from .relations import Inclusion

    L, R = spec.sides(slot, alg.kern, alg.one, plain)
    lines = []
    for i, e in enumerate(universe):
        lh, rh = HFE._from_grid(L[i], alg.one), HFE._from_grid(R[i], alg.one)
        lname, rname = at(spec.lhs, e), at(spec.rhs, e)
        lines.append(f"    {lname} = {lh}")
        lines.append(f"    {rname} = {rh}")
        if spec.mode in ("rel", "eq") and spec.kind is Inclusion.MEAN:
            lines.append(
                f"      mean[{lname}] = {render_rational(lh.mean)}"
                f"  vs  mean[{rname}] = {render_rational(rh.mean)}"
            )
        elif spec.mode in ("rel", "eq") and spec.kind in (
            Inclusion.POSSIBLE,
            Inclusion.ACCEPTABLE,
            Inclusion.NECESSARY,
        ):
            lines.append(
                f"      bounds {lname}: [{render_rational(lh.lower)}, "
                f"{render_rational(lh.upper)}]  vs  {rname}: "
                f"[{render_rational(rh.lower)}, {render_rational(rh.upper)}]"
            )
        elif spec.mode == "multiset":
            only_left = sorted(set(lh.degrees) - set(rh.degrees), reverse=True)
            only_right = sorted(set(rh.degrees) - set(lh.degrees), reverse=True)
            if only_left or only_right or lh != rh:
                left_s = ", ".join(render_rational(v) for v in only_left) or "(none)"
                right_s = ", ".join(render_rational(v) for v in only_right) or "(none)"
                lines.append(f"      values only on the left: {left_s}")
                lines.append(f"      values only on the right: {right_s}")
    return lines


def _print_fixture_trace(law, fixture, result) -> None:
    """Print a refuted law's replay on one fixture: its `FixtureResult`, and
    the values of the premise's and the claim's sides."""
    from .laws.engine import exact_binding, fixture_binding
    from .laws.generators import slots

    binding = fixture_binding(law, fixture)
    alg, plain = exact_binding(law, binding)
    print(f"{law.id}: {law.statement}")
    print(f"  fixture {fixture.name}, universe {{{', '.join(fixture.universe)}}}")
    for var, hfs in binding.items():
        memberships = " + ".join(f"{hfs[e]}/{e}" for e in fixture.universe)
        print(f"    {var} = {memberships}")
    for label, spec, holds in (
        ("premise", law.premise, result.guard),
        ("claim", law.conclusion, result.claim),
    ):
        if spec is not None:
            print(f"  {label} {spec}: {_fmt_bool(holds)}")
            for line in _spec_detail(spec, slots(law.params), alg, plain, fixture.universe):
                print(line)
    print(f"  => fixture {'falsifies the claim' if result.confirmed else 'DOES NOT falsify'}")
    print()


def cmd_counterexamples(args) -> int:
    from .laws.engine import replay_fixtures
    from .laws.registry import LawStatus, get_law, refuted_laws

    if args.law:
        laws = [get_law(args.law)]
        if laws[0].status is not LawStatus.REFUTED:
            print(f"error: {laws[0].id} is a proved law; nothing to replay", file=sys.stderr)
            return 2
    else:
        laws = list(refuted_laws())
    all_ok = True
    for law in laws:
        for fixture, result in zip(law.fixtures, replay_fixtures(law)):
            _print_fixture_trace(law, fixture, result)
            all_ok &= result.confirmed
    print(f"{'PASS' if all_ok else 'FAIL'}: {len(laws)} refuted law(s) replayed")
    return 0 if all_ok else 1


# --- hunt (witness search) -------------------------------------------------------


def cmd_hunt(args) -> int:
    from .laws.engine import hunt_counterexample

    config = _config(args)
    witness = hunt_counterexample(args.law, config)
    if witness is None:
        print(f"no witness for {args.law} within {config.trials} trials (seed {config.seed})")
        return 1
    print(f"witness for {args.law} at trial {witness.trial}:")
    for var, value in sorted(witness.binding.items()):
        print(f"  {var} = {value}")
    return 0


# --- ingest -----------------------------------------------------------------------


def cmd_ingest(args) -> int:
    from .document import save_document
    from .ingest import ingest_scores

    with open(args.table, "rb") as handle:
        doc = ingest_scores(handle, set_name=args.set_name)
    with open(args.output, "wb") as out:
        out.write(save_document(doc))
    schemes = ", ".join(doc.universe)
    print(f"wrote {args.output}: set {args.set_name!r} over schemes {schemes}")
    return 0


# --- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesitant",
        description="Exact algebra, inclusion relations and law checking for hesitant fuzzy sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relate", help="relation profiles between two named sets")
    p.add_argument("file")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("ops", help="evaluate an expression over named sets (∪/| ∩/& ᶜ/^c)")
    p.add_argument("file")
    p.add_argument("expr")
    p.add_argument("-o", "--output", help="write a document containing the result set")
    p.add_argument("--name", help="name of the result set (default: result)")
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser("rank", help="rank one set's schemes by pairwise inclusion")
    p.add_argument("file")
    p.add_argument("set")
    p.add_argument("--kind", required=True, choices=["p", "a", "m", "s", "n"])
    p.add_argument("--dot", help="write the strict-part order as a DOT graph")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("check", help="run the law suite")
    # no default here: `_config` fills in GeneratorConfig's
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--law", action="append", help="restrict to one law id (repeatable)")
    p.add_argument("--report", help="write the canonical JSON report here")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("counterexamples", help="replay refuted-law fixtures with traces")
    p.add_argument("law", nargs="?", help="a refuted law id (default: all)")
    p.set_defaults(func=cmd_counterexamples)

    p = sub.add_parser("hunt", help="search for a random counterexample to one law")
    p.add_argument("law")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--grid", type=int)
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("ingest", help="build a document from an expert score table (CSV)")
    p.add_argument("table")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--set-name", default="H")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HesitantError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
