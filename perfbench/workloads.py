"""The benchmark's workloads: seeded inputs, one timed operation, checks.

Each workload is a fixed list of items built from the seed (one *cycle*).
`run` performs one operation on one item through the public `hesitant` API,
`check` lists what is wrong with its output, and `record` gives the bytes
that go into the cycle's digest, which is compared with a pinned sha256 for
the shipped seeds. Only the public package is imported here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random

from hesitant import (
    Family,
    GeneratorConfig,
    Inclusion,
    SetOp,
    SuiteReport,
    evaluate_on_hfs,
    family_fold,
    format_ranking,
    ingest_scores,
    law_registry,
    load_document,
    parse_expression,
    rank_schemes,
    ranking_dot,
    save_document,
    set_relation,
)
from hesitant.ingest import scores_csv
from hesitant.laws import run_law

KINDS = tuple(Inclusion)  # p, a, m, s, t, n
RANKED = tuple(Inclusion.from_letter(k) for k in "pamsn")


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(len(record).to_bytes(8, "little"))
        h.update(record)
    return h.hexdigest()


class Workload:
    name = ""
    #: What one unit of `throughput` is.
    unit = ""

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.items: list = []

    @property
    def spec(self) -> str:
        """The input parameters a pinned digest is valid for."""
        return f"{self.name}/{self.scale}"

    def label(self, item) -> str:
        raise NotImplementedError

    def run(self, item, tracer):
        raise NotImplementedError

    def work(self, out) -> int:
        return 1

    def check(self, item, out) -> list[str]:
        raise NotImplementedError

    def record(self, out):
        """What the cycle keeps of `out` for its digest; outputs themselves
        are dropped at once, so they never burden the garbage collector."""
        raise NotImplementedError

    def mutate(self, out):
        """A copy of `out` with one output byte changed (self-test only)."""
        raise NotImplementedError

    def cycle_digest(self, records) -> str:
        return _digest(records)

    def inputs_digest(self) -> str:
        raise NotImplementedError


# --- suite: the randomized law checker --------------------------------------


class Suite(Workload):
    """`hesitant check`: every law of the registry through `run_law`, on the
    default generator configuration except for the trial count."""

    name = "suite"
    unit = "trials/s"
    TRIALS = {"full": 300, "tiny": 4}

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.config = GeneratorConfig(seed=seed, trials=self.TRIALS[scale])
        self.items = list(law_registry())

    def label(self, law) -> str:
        return law.id

    def run(self, law, tracer):
        result = tracer.call("engine.self_s", run_law, tracer.law(law), self.config)
        tracer.count("engine.trials", result.trials)
        tracer.count("engine.starved", result.starved)
        return result

    def work(self, result) -> int:
        return result.trials

    def check(self, law, result) -> list[str]:
        problems = []
        if not result.ok:
            problems.append("not ok")
        if result.violations:
            problems.append(f"{result.violations} violations")
        if result.starved:
            problems.append(f"{result.starved} starved trials")
        if result.status == "proved" and result.trials != self.config.trials:
            problems.append(f"{result.trials} of {self.config.trials} trials run")
        return problems

    def record(self, result):
        return result

    def mutate(self, result):
        return dataclasses.replace(result, trials=result.trials + 1)

    def report(self, results) -> SuiteReport:
        return SuiteReport(config=self.config, results=tuple(results))

    def cycle_digest(self, results) -> str:
        return hashlib.sha256(self.report(results).canonical_json()).hexdigest()

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr(self.config).encode()).hexdigest()


# --- docs: the exact public algebra plus document writes ---------------------


def _render(k: int, digits: int) -> str:
    """Degree k / 10**digits as a decimal string, trailing zeros kept."""
    if k == 10**digits:
        return "1." + "0" * digits
    return "0." + str(k).zfill(digits)


def _desc(values) -> list[int]:
    return sorted(values, reverse=True)


class Docs(Workload):
    """Seeded documents of 8 elements, 6 sets and one family of 4; half carry
    two-digit degrees and half nine-digit ones, because denominator size
    drives the cost of `Fraction` arithmetic."""

    name = "docs"
    unit = "docs/s"
    COUNT = {"full": 100, "tiny": 4}
    ELEMENTS = 8
    # Cardinalities per element, fixed so that documents differ in their
    # degrees and not in their size.
    CARDS = (1, 2, 3, 4, 5, 2, 3, 4)
    CARDS_ABOVE = (1, 2, 3, 4, 5, 6, 3, 4)

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        rng = random.Random(f"docs/{seed}")
        self.items = [self._document(rng, i, 2 if i % 2 == 0 else 9) for i in range(self.COUNT[scale])]

    def _document(self, rng: random.Random, index: int, digits: int) -> dict:
        top = 10**digits

        def draw(card):
            return _desc(rng.randint(0, top) for _ in range(card))

        def strong_above(a):  # same cardinality, dominating position by position
            return _desc(rng.randint(x, top) for x in a)

        def necessary_above(a, card):  # every degree at least max a
            return _desc(rng.randint(a[0], top) for _ in range(card))

        def tail_above(a):  # one degree longer, dominating a's positions
            return _desc(strong_above(a) + [rng.randint(0, top)])

        def cards(pattern):  # the same cardinalities in every document, shuffled
            return rng.sample(pattern, len(pattern))

        names = rng.sample("ABCDEFHJKLMN", 6)
        universe = [f"x{i}" for i in range(1, self.ELEMENTS + 1)]
        rows = {name: [] for name in names}
        base = self.CARDS[: self.ELEMENTS]
        for ca, cc, cd, ce in zip(cards(base), cards(base), cards(self.CARDS_ABOVE), cards(base)):
            a, c, e = draw(ca), draw(cc), draw(ce)
            for name, value in zip(names, (a, strong_above(a), c, necessary_above(c, cd), e, tail_above(e))):
                rows[name].append(value)
        sets = {}
        for name in rng.sample(names, 6):
            members = {}
            for e, value in zip(universe, rows[name]):
                degrees = [_render(k, digits) for k in value]
                rng.shuffle(degrees)
                members[e] = degrees
            sets[name] = members
        family = rng.sample(names, 4)
        shuffled = rng.sample(range(len(family)), len(family))
        raw = json.dumps({"universe": universe, "sets": sets, "families": {"G": family}}).encode()
        return {
            "index": index,
            "digits": digits,
            "raw": raw,
            "names": names,
            "planted": ((names[0], names[1], Inclusion.STRONG), (names[2], names[3], Inclusion.NECESSARY),
                        (names[4], names[5], Inclusion.TAIL)),
            "shuffled": shuffled,
            "identities": self._identities(names),
        }

    @staticmethod
    def _identities(names) -> list[tuple[str, str]]:
        """De Morgan, involution, commutativity and associativity, over
        cyclic pairs and triples of the sets, in both operator spellings."""
        out = []
        n = len(names)
        for i in range(n):
            x, y, z = names[i], names[(i + 1) % n], names[(i + 2) % n]
            out += [
                (f"({x} ∩ {y})ᶜ", f"{x}ᶜ ∪ {y}ᶜ"),
                (f"({x} | {y})^c", f"{x}^c & {y}^c"),
                (f"({x}ᶜ)ᶜ", x),
                (f"{x} & {y}", f"{y} ∩ {x}"),
                (f"{x} ∪ {y}", f"{y} | {x}"),
                (f"({x} ∩ {y}) ∩ {z}", f"{x} & ({y} & {z})"),
                (f"({x} ∪ {y}) ∪ {z}", f"{x} | ({y} | {z})"),
            ]
        return out

    def label(self, item) -> str:
        return f"doc{item['index']}-d{item['digits']}"

    def run(self, item, tracer):
        call = tracer.call
        doc = call("document.load_s", load_document, item["raw"])
        sets = {name: doc.hfs(name) for name in doc.set_names()}
        identities = []
        for lhs, rhs in item["identities"]:
            left = call("expressions.eval_s", evaluate_on_hfs, call("expressions.parse_s", parse_expression, lhs),
                        sets.__getitem__)
            right = call("expressions.eval_s", evaluate_on_hfs, call("expressions.parse_s", parse_expression, rhs),
                         sets.__getitem__)
            identities.append(left == right)
        verdicts = {
            (x, y): tuple(call("relations.s", set_relation, kind, sets[x], sets[y]) for kind in KINDS)
            for x, y in itertools.permutations(item["names"], 2)
        }
        family = doc.family("G")
        members = list(family.members())
        shuffled = Family([members[i] for i in item["shuffled"]])
        folds = [call("sets.s", family_fold, op, family) for op in (SetOp.UNION, SetOp.INTERSECTION)]
        folds_shuffled = [call("sets.s", family_fold, op, shuffled) for op in (SetOp.UNION, SetOp.INTERSECTION)]
        out_doc = call("document.save_s", doc.with_set, "U", folds[0])
        out_doc = call("document.save_s", out_doc.with_set, "V", folds[1])
        saved = call("document.save_s", save_document, out_doc)
        again = call("document.save_s", save_document, call("document.load_s", load_document, saved))
        tracer.count("document.bytes", len(saved) + len(again))
        return {
            "identities": identities,
            "verdicts": verdicts,
            "folds_agree": folds == folds_shuffled,
            "saved": saved,
            "again": again,
        }

    def check(self, item, out) -> list[str]:
        problems = []
        failed = [item["identities"][i] for i, ok in enumerate(out["identities"]) if not ok]
        if failed:
            problems.append(f"identity fails: {failed[0][0]} = {failed[0][1]}")
        for (x, y), verdict in out["verdicts"].items():
            p, a, m, s, t, n = verdict
            if (n and not (a and m and p)) or (s and not (a and m)) or (t and not p) or (s and t):
                problems.append(f"implication lattice broken for {x}, {y}: {verdict}")
        for x, y, kind in item["planted"]:
            if not out["verdicts"][(x, y)][KINDS.index(kind)]:
                problems.append(f"constructed {x} {kind} {y} not found")
        if not out["folds_agree"]:
            problems.append("family folds depend on member order")
        if out["saved"] != out["again"]:
            problems.append("save/reload is not byte-stable")
        return problems

    def record(self, out) -> bytes:
        bits = "".join("1" if ok else "0" for ok in out["identities"])
        bits += "".join("1" if v else "0" for verdict in out["verdicts"].values() for v in verdict)
        return out["saved"] + bits.encode()

    def mutate(self, out):
        saved = bytearray(out["saved"])
        saved[-3] ^= 1
        return dict(out, saved=bytes(saved))

    def inputs_digest(self) -> str:
        return _digest(item["raw"] for item in self.items)


# --- panels: expert panels ranking decision schemes --------------------------


def _panel_sizes(count: int, largest: tuple[int, ...], low: int, high: int) -> list[int]:
    """`largest` plus the rest log-spaced from `low` to `high` schemes."""
    rest = count - len(largest)
    ratio = (high / low) ** (1 / max(rest - 1, 1))
    return list(largest) + [round(low * ratio**i) for i in range(rest)]


class Panels(Workload):
    """Seeded `scheme,expert,score` tables with about 20% blank scores, on a
    fixed schedule of panel sizes; alternate panels use two-digit scores
    (few ties) and one-digit Likert-like scores (dense ties)."""

    name = "panels"
    unit = "panels/s"
    SIZES = {
        "full": _panel_sizes(40, (160,), 4, 72),
        "tiny": [4, 6, 8, 10],
    }
    BLANK = 0.2

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        rng = random.Random(f"panels/{seed}")
        self.items = [self._panel(rng, i, n, 1 + i % 2) for i, n in enumerate(self.SIZES[scale])]

    def _panel(self, rng: random.Random, index: int, schemes: int, digits: int) -> dict:
        experts = 5 + index % 3
        rows = []
        for s in range(schemes):
            blank = [rng.random() < self.BLANK for _ in range(experts)]
            blank[rng.randrange(experts)] = False  # every scheme keeps a score
            for e in range(experts):
                if blank[e]:
                    score = ""
                elif digits == 1:
                    score = _render(rng.randint(0, 10), 1).rstrip("0").rstrip(".")
                else:
                    score = _render(rng.randint(0, 100), 2)
                rows.append((f"scheme-{s + 1:03d}", f"expert-{e + 1}", score))
        return {"index": index, "schemes": schemes, "digits": digits, "rows": len(rows), "csv": scores_csv(rows)}

    def label(self, item) -> str:
        return f"panel{item['index']}-n{item['schemes']}-d{item['digits']}"

    def run(self, item, tracer):
        call = tracer.call
        tracer.count("ingest.rows", item["rows"])
        doc = call("ingest.s", ingest_scores, item["csv"])
        saved = call("document.save_s", save_document, doc)
        tracer.count("document.bytes", len(saved))
        scores = call("document.load_s", load_document, saved).hfs("H")
        rankings = []
        for kind in RANKED:
            ranking = call("ranking.rank_s", rank_schemes, scores, kind)
            tracer.count("ranking.pairs", len(ranking.matrix))
            tracer.count("ranking.layers", len(ranking.layers))
            rankings.append((ranking, call("ranking.format_s", format_ranking, ranking),
                             call("ranking.dot_s", ranking_dot, ranking)))
        return {"doc": doc, "saved": saved, "rankings": rankings}

    def check(self, item, out) -> list[str]:
        problems = []
        if save_document(load_document(out["saved"])) != out["saved"]:
            problems.append("ingested document is not byte-stable")
        for ranking, text, dot in out["rankings"]:
            kind = ranking.kind.letter
            flat = [s for layer in ranking.layers for s in layer]
            if sorted(flat) != sorted(ranking.schemes) or len(set(flat)) != len(flat):
                problems.append(f"⊂{kind} layers do not partition the schemes")
            for layer in ranking.layers:
                if any(ranking.strictly_above(a, b) for a in layer for b in layer):
                    problems.append(f"⊂{kind} layer holds a strict pair")
                    break
            if not text.endswith("\n") or not dot.startswith("digraph"):
                problems.append(f"⊂{kind} report is malformed")
        return problems

    def record(self, out) -> bytes:
        return b"".join((text + dot).encode() for _, text, dot in out["rankings"])

    def mutate(self, out):
        ranking, text, dot = out["rankings"][0]
        return dict(out, rankings=[(ranking, text.replace("y", ".", 1), dot)] + out["rankings"][1:])

    def inputs_digest(self) -> str:
        return _digest(item["csv"].encode() for item in self.items)


WORKLOADS = {w.name: w for w in (Suite, Docs, Panels)}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](seed, scale)


def tail_rank(samples: int) -> tuple[int, float]:
    """Index into the sorted samples of the highest percentile that leaves
    at least ten samples beyond it, and that percentile; the maximum when
    there are too few samples for that."""
    if samples < 11:
        return samples - 1, 100.0
    index = samples - 11
    return index, 100.0 * index / (samples - 1)

