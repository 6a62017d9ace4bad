"""The benchmark's three workloads, their generated inputs and their oracles.

Each workload makes its inputs from the seed, writes them to files in a
temporary directory, and drives the effattr CLI in-process through
``effattr.cli.main``; the program only ever sees those files. Work is done
in rounds (one ``effattr meta`` call, one CLI chain, one pass over the
generated spaces), so every round has the same mix of operations.

The oracles below do not use effattr code: they recompute from the input
documents and the program's output files with the standard library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

DEFAULT_SEED = 7
_now = time.perf_counter


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Operation latencies by kind, timed seconds and failures of one phase.

    An operation's kind is its place in a round: the method of an estimate,
    the step of a chain, the space of a generated-space operation.
    """

    def __init__(self, tracer: Any = None):
        self.latencies: dict[str, list[float]] = {}
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer
        self.ops_started = 0

    def begin_op(self) -> None:
        self.ops_started += 1
        if self.tracer is not None:
            self.tracer.op = self.ops_started

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def cli_call(argv: Sequence[str]) -> tuple[int, float, str]:
    """Run one effattr subcommand in-process: (exit code, seconds, stderr)."""
    from effattr import cli

    err = io.StringIO()
    t0 = _now()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # an escaped exception is a failed operation
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, _now() - t0, err.getvalue().strip()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


# -- oracles -----------------------------------------------------------------


def _labels(factor: Mapping[str, Any]) -> list[str]:
    return [lv["label"] for lv in factor["levels"]]


def _excluded(assignment: Mapping[str, str], exclusions: Sequence[Mapping[str, str]]) -> bool:
    return any(all(assignment.get(f) == lab for f, lab in e.items()) for e in exclusions)


def brute_force_count(space: Mapping[str, Any], roles: Sequence[str]) -> int:
    """Valid configurations over the factors of ``roles``, by full product."""
    factors = [f for f in space["factors"] if f["role"] in roles]
    names = [f["name"] for f in factors]
    relevant = [e for e in space.get("exclusions", []) if set(e) <= set(names)]
    return sum(
        not _excluded(dict(zip(names, combo)), relevant)
        for combo in itertools.product(*(_labels(f) for f in factors))
    )


def space_size_text(space: Mapping[str, Any]) -> str:
    """What ``effattr space size`` must print, from brute-force counts."""
    return (
        f"CUI cardinality: {brute_force_count(space, ('CUI',))}\n"
        f"DC cardinality: {brute_force_count(space, ('DC',))}\n"
        f"total cardinality: {brute_force_count(space, ('CUI', 'DC'))}\n"
    )


def check_paired_plan(space: Mapping[str, Any], plan: Mapping[str, Any], n: int, r: int) -> list[str]:
    """Every trial valid and complete; n pairs whose arms differ only in the CUI."""
    cui = next(f["name"] for f in space["factors"] if f["role"] == "CUI")
    names = {f["name"] for f in space["factors"]}
    arms: dict[str, dict[str, dict[str, str]]] = {}
    for t in plan["trials"]:
        a = t["assignment"]
        if set(a) != names or _excluded(a, space.get("exclusions", [])):
            return [f"paired plan: invalid trial assignment {a}"]
        arms.setdefault(t["pair_id"], {})[t["arm"]] = a
    if len(plan["trials"]) != 2 * n * r or len(arms) != n:
        return [f"paired plan: {len(plan['trials'])} trials over {len(arms)} pairs, expected {n} pairs"]
    for pid, sides in arms.items():
        if set(sides) != {"a", "ref"}:
            return [f"paired plan: pair {pid} has arms {sorted(sides)}"]
        dc_a = {k: v for k, v in sides["a"].items() if k != cui}
        dc_ref = {k: v for k, v in sides["ref"].items() if k != cui}
        if dc_a != dc_ref or sides["a"][cui] == sides["ref"][cui]:
            return [f"paired plan: pair {pid} arms are not a CUI pair"]
    return []


def _log_records(log_text: str) -> list[dict[str, Any]]:
    lines = [json.loads(ln) for ln in log_text.splitlines() if ln.strip()]
    return lines[1:]  # first line is the header


def _parse_fields(text: str) -> dict[str, str]:
    lines = text.splitlines()
    fields = dict(ln.split("=", 1) for ln in lines[1:] if "=" in ln)
    first = dict(part.split("=", 1) for part in lines[0].split()) if lines else {}
    return {**first, **fields}


def check_effect(plan: Mapping[str, Any], log_text: str, output: str) -> list[str]:
    """Recompute ΔE from a serial run log: median per config, mean of pair diffs.

    A serial run appends records in plan order, so record i belongs to
    trial i of the plan.
    """
    trials = plan["trials"]
    records = _log_records(log_text)
    if len(records) != len(trials):
        return [f"effect: log has {len(records)} records for {len(trials)} trials"]
    values: dict[tuple[str, str], list[float]] = {}
    order: list[str] = []
    for t, rec in zip(trials, records):
        if rec["status"] != "ok" or rec["replicate"] != t["replicate"]:
            return [f"effect: record {rec} does not match trial {t['pair_id']}/{t['arm']}"]
        if t["pair_id"] not in order:
            order.append(t["pair_id"])
        values.setdefault((t["pair_id"], t["arm"]), []).append(rec["value"])
    diffs = [
        statistics.median(values[(p, "a")]) - statistics.median(values[(p, "ref")]) for p in order
    ]
    expected = math.fsum(diffs) / len(diffs)
    fields = _parse_fields(output)
    try:
        got = float(fields["delta_e"])
        n = int(fields["n"])
    except (KeyError, ValueError):
        return [f"effect: unparseable output {output[:200]!r}"]
    if n != len(diffs) or not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12):
        return [f"effect: delta_e={got!r} n={n}, oracle delta_e={expected!r} n={len(diffs)}"]
    return []


def check_anova(log_text: str, output: str) -> list[str]:
    """The table partitions the total sum of squares and degrees of freedom."""
    ys = [rec["value"] for rec in _log_records(log_text)]
    mean = math.fsum(ys) / len(ys)
    total_ss = math.fsum((y - mean) ** 2 for y in ys)
    lines = output.splitlines()
    try:
        rows = [ln.split(",") for ln in lines[1:]]
        ss = math.fsum(float(r[1]) for r in rows)
        df = sum(int(r[2]) for r in rows)
        pct = math.fsum(float(r[3]) for r in rows)
    except (IndexError, ValueError):
        return [f"anova: unparseable output {output[:200]!r}"]
    if (
        lines[:1] != ["component,ss,df,pct,f_computed,f_critical,significant"]
        or df != len(ys) - 1
        or not math.isclose(ss, total_ss, rel_tol=1e-6)
        or not math.isclose(pct, 100.0, rel_tol=1e-6)
    ):
        return [f"anova: ss={ss!r} df={df} pct={pct!r}, oracle ss={total_ss!r} df={len(ys) - 1}"]
    return []


def oracle_ground_truth(scenario: Mapping[str, Any]) -> float:
    """True effect a - ref by weighted enumeration of the valid DC space."""
    space, model = scenario["space"], scenario["model"]
    exclusions = space.get("exclusions", [])
    cui = next(f["name"] for f in space["factors"] if f["role"] == "CUI")
    dc = [f for f in space["factors"] if f["role"] == "DC"]
    weights = []
    for f in dc:
        raw = {lv["label"]: float(lv.get("weight", 1.0)) for lv in f["levels"]}
        total = math.fsum(raw.values())
        weights.append({lab: w / total for lab, w in raw.items()})
    mains = {(m["factor"], m["level"]): float(m["effect"]) for m in model.get("main_effects", [])}
    inters = [(rec["terms"], float(rec["effect"])) for rec in model.get("interactions", [])]

    def response(assignment: Mapping[str, str]) -> float:
        value = float(model.get("baseline", 0.0))
        value += math.fsum(mains.get(item, 0.0) for item in assignment.items())
        value += math.fsum(e for terms, e in inters if all(assignment.get(f) == lab for f, lab in terms.items()))
        return value

    names = [f["name"] for f in dc]
    dc_exclusions = [e for e in exclusions if cui not in e]
    acc = total_w = 0.0
    for combo in itertools.product(*(_labels(f) for f in dc)):
        assignment = dict(zip(names, combo))
        if _excluded(assignment, dc_exclusions):
            continue
        w = math.prod(weights[i][lab] for i, lab in enumerate(combo))
        side_a = {**assignment, cui: scenario["cui_a"]}
        side_ref = {**assignment, cui: scenario["cui_ref"]}
        acc += w * (response(side_a) - response(side_ref))
        total_w += w
    return acc / total_w


def expected_costs(scenario: Mapping[str, Any]) -> dict[str, int]:
    """Method name -> configuration count the method must report."""
    out = {}
    for m in scenario["methods"]:
        name = m.get("label") or (f"{m['kind']}-{m['n']}" if m.get("n") else m["kind"])
        if m["kind"] == "factorial_2kr":
            cells = 2 ** len(m["split"])
            if m.get("stratify"):
                stratum = next(f for f in scenario["space"]["factors"] if f["name"] == m["stratify"])
                cells *= len(stratum["levels"])
            out[name] = cells
        else:
            out[name] = int(m["n"])
    return out


def check_meta_csv(scenario: Mapping[str, Any], truth: float, output: str) -> list[str]:
    """Rows, cost, iterations and ground truth of an ``effattr meta`` CSV."""
    lines = output.splitlines()
    if lines[:1] != ["method,cost,accuracy,mean_ci_width,iterations,ground_truth"]:
        return [f"meta: bad header in {output[:200]!r}"]
    costs = expected_costs(scenario)
    iterations = int(scenario["iterations"])
    problems = []
    seen = []
    for ln in lines[1:]:
        try:
            method, cost, acc, width, iters, gt = ln.split(",")
            ok = (
                int(cost) == costs.get(method)
                and int(iters) == iterations
                and 0.0 <= float(acc) <= 1.0
                and math.isclose(float(acc) * iterations, round(float(acc) * iterations), abs_tol=1e-6)
                and math.isfinite(float(width))
                and float(width) >= 0.0
                and math.isclose(float(gt), truth, rel_tol=1e-9, abs_tol=1e-12)
            )
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"meta: row {ln!r} disagrees with oracle (cost {costs}, truth {truth!r})")
        seen.append(ln.split(",")[0])
    if seen != list(costs):
        problems.append(f"meta: methods {seen}, expected {list(costs)}")
    return problems


def check_digest(name: str, text: str, recorded: Mapping[str, str]) -> list[str]:
    got = sha256_text(text)
    want = recorded.get(name)
    return [] if got == want else [f"digest {name}: got {got}, recorded {want}"]


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs made from a seed, written to ``tmp``; one round of operations at a time."""

    name = ""
    min_ops = 1  # a timed run completes at least this many operations
    # op_tail_ms: the higher of p90/p95 that min_ops leaves ten samples
    # beyond. p99 of meta_smt would have 17 and spread by up to 30 % between
    # runs; it stays in the record line.
    tail_pct = 90
    trace_rounds = 1  # rounds in each pass of a traced run

    def __init__(self, root: Path, tmp: Path, seed: int, digests: Mapping[str, str]):
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.digests = digests if seed == DEFAULT_SEED else {}
        self.output_digests: dict[str, str] = {}

    def setup_code(self) -> str:
        """Python run by a fresh interpreter: import effattr and load the inputs."""
        raise NotImplementedError

    def _digest(self, k: int, name: str, text: str) -> list[str]:
        """Record round 0's output digest; at the default seed it must match."""
        if k != 0:
            return []
        self.output_digests[name] = sha256_text(text)
        return check_digest(name, text, self.digests) if self.digests else []

    def round(self, k: int, tally: Tally) -> None:
        raise NotImplementedError

    def _setup_prelude(self) -> str:
        src = str(self.root / "src")
        return f"import sys; sys.path.insert(0, {src!r}); import effattr, effattr.cli; "


class MetaSmt(Workload):
    """``effattr meta --raw`` on the bundled SMT scenario; one op = one estimate."""

    name = "meta_smt"
    iterations = 10
    min_ops = 1000
    tail_pct = 95
    trace_rounds = 2

    def __init__(self, root: Path, tmp: Path, seed: int, digests: Mapping[str, str]):
        super().__init__(root, tmp, seed, digests)
        self.doc = json.loads((root / "scenarios" / "smt_scenario.json").read_text(encoding="utf-8"))
        self.doc["iterations"] = self.iterations
        self.truth = oracle_ground_truth(self.doc)
        self.ops_per_round = self.iterations * len(self.doc["methods"])
        self.scenario_path = self._write(0)

    def _write(self, k: int) -> Path:
        # Round k uses master seed seed + k: round 0 is the workload seed.
        path = self.tmp / f"scenario_{k}.json"
        path.write_text(json.dumps({**self.doc, "master_seed": self.seed + k}), encoding="utf-8")
        return path

    def setup_code(self) -> str:
        return self._setup_prelude() + f"effattr.load_scenario_file({str(self.scenario_path)!r})"

    def round(self, k: int, tally: Tally) -> None:
        from effattr import meta

        path = self.scenario_path if k == 0 else self._write(k)
        out = self.tmp / "meta.csv"
        out.unlink(missing_ok=True)
        original = meta._one_iteration

        def timed_estimate(scenario: Any, method: Any, seed: int) -> Any:
            tally.begin_op()
            t0 = _now()
            try:
                return original(scenario, method, seed)
            finally:
                tally.record(method.name, _now() - t0)

        meta._one_iteration = timed_estimate
        try:
            rc, seconds, err = cli_call(["meta", "--scenario", str(path), "--raw", "--out", str(out)])
        finally:
            meta._one_iteration = original
        tally.attempted += self.ops_per_round
        tally.timed_s += seconds
        if rc != 0:
            tally.fail(self.ops_per_round, f"meta round {k}: exit {rc}: {err[-300:]}")
            return
        text = _read(out)
        problems = check_meta_csv(self.doc, self.truth, text)
        problems += self._digest(k, "meta_smt.csv", text)
        if problems:
            tally.fail(self.ops_per_round, "; ".join(problems))


class CliFiles(Workload):
    """plan -> run -> resume -> analyze chains through files; one op = one subcommand."""

    name = "cli_files"
    min_ops = 200
    tail_pct = 95
    trace_rounds = 2
    n, r = 300, 3

    def __init__(self, root: Path, tmp: Path, seed: int, digests: Mapping[str, str]):
        super().__init__(root, tmp, seed, digests)
        scenarios = root / "scenarios"
        self.space = scenarios / "cpu_space.json"
        self.complete = scenarios / "cpu_space_complete.json"
        self.model = scenarios / "smt_model.json"
        complete_doc = json.loads(self.complete.read_text(encoding="utf-8"))
        self.full_configs = brute_force_count(complete_doc, ("CUI", "DC"))

    def setup_code(self) -> str:
        return self._setup_prelude() + (
            f"effattr.load_space_file({str(self.space)!r}); "
            f"effattr.load_space_file({str(self.complete)!r}); "
            f"effattr.load_model_file({str(self.model)!r})"
        )

    def round(self, k: int, tally: Tally) -> None:
        t = self.tmp
        seed = str(self.seed + k)  # chain k uses seed + k: chain 0 is the workload seed
        backend = f"synthetic:{self.model}"
        for log in (t / "paired.jsonl", t / "full.jsonl"):
            log.unlink(missing_ok=True)
        n, r, full = self.n, self.r, self.full_configs
        steps: list[tuple[list[str], Callable[[str], list[str]]]] = [
            (
                ["plan", "paired", "--space", str(self.space), "--plan-out", str(t / "paired.json"),
                 "--n", str(n), "--r", str(r), "--cui-a", "smt_off", "--cui-ref", "smt_on",
                 "--stratify", "workload", "--seed", seed],
                expect_text(f"configs={2 * n} trials={2 * n * r} cost={n}\n"),
            ),
            (
                ["run", "--plan", str(t / "paired.json"), "--log", str(t / "paired.jsonl"), "--backend", backend],
                expect_text(f"{2 * n * r} new trials, 0 failed\n"),
            ),
            (
                ["run", "--plan", str(t / "paired.json"), "--log", str(t / "paired.jsonl"), "--backend", backend],
                expect_text("0 new trials, 0 failed\n"),
            ),
            (
                ["analyze", "effect", "--plan", str(t / "paired.json"), "--log", str(t / "paired.jsonl"), "--raw"],
                lambda out: check_effect(
                    json.loads(_read(t / "paired.json")), _read(t / "paired.jsonl"), out
                ) + self._digest(k, "cli_files.effect", out),
            ),
            (
                ["plan", "full", "--space", str(self.complete), "--plan-out", str(t / "full.json"),
                 "--r", str(r), "--seed", seed],
                expect_text(f"configs={full} trials={full * r} cost={full}\n"),
            ),
            (
                ["run", "--plan", str(t / "full.json"), "--log", str(t / "full.jsonl"), "--backend", backend,
                 "--parallelism", "2"],
                expect_text(f"{full * r} new trials, 0 failed\n"),
            ),
            (
                ["analyze", "anova", "--plan", str(t / "full.json"), "--log", str(t / "full.jsonl"), "--raw",
                 "--format", "csv"],
                lambda out: check_anova(_read(t / "full.jsonl"), out) + self._digest(k, "cli_files.anova", out),
            ),
        ]
        out_path = t / "out.txt"
        for step, (argv, check) in enumerate(steps):
            tally.begin_op()
            out_path.unlink(missing_ok=True)
            rc, seconds, err = cli_call(argv + ["--out", str(out_path)])
            tally.attempted += 1
            tally.timed_s += seconds
            tally.record(f"{step} {argv[0]} {argv[1]}", seconds)
            if rc != 0:
                tally.fail(1, f"{' '.join(argv[:2])} chain {k}: exit {rc}: {err[-300:]}")
                continue
            problems = check(_read(out_path))
            if problems:
                tally.fail(1, f"{' '.join(argv[:2])} chain {k}: " + "; ".join(problems))


def expect_text(expected: str) -> Callable[[str], list[str]]:
    return lambda out: [] if out == expected else [f"got {out!r}, expected {expected!r}"]


# (shared-corner exclusions, random-label exclusions) per generated space.
# Shared-corner exclusions name two factors at one corner of the DC grid,
# so every subset of them is compatible and counting them by
# inclusion-exclusion costs 2^m. Random-label exclusions name six factors,
# three of them off the corner, so they mostly conflict and pruning works.
# The seed picks factors, corner and labels; the structure that sets the
# counting cost (distinct pairs, the off-corner count, random-label
# exclusions listed first) is fixed, so that cost hardly depends on the seed.
SPACE_SCHEDULE = (
    (4, 4), (5, 4), (6, 4), (7, 4), (8, 4), (9, 4),
    (10, 2), (11, 2), (12, 2), (13, 2), (14, 2), (15, 2),
)
SPACE_DC_FACTORS = 12


def make_space(rng: random.Random, n_shared: int, n_random: int) -> dict[str, Any]:
    """One 2-level CUI plus 2-level DC factors; exclusions never name the CUI."""
    names = [f"f{i:02d}" for i in range(SPACE_DC_FACTORS)]
    flip = {"lo": "hi", "hi": "lo"}
    two = [{"label": "lo"}, {"label": "hi"}]
    factors = [{"name": "cui", "role": "CUI", "levels": [{"label": "a"}, {"label": "b"}]}]
    factors += [{"name": n, "role": "DC", "levels": two} for n in names]
    corner = {n: rng.choice(("lo", "hi")) for n in names}
    exclusions = []
    for _ in range(n_random):
        chosen = rng.sample(names, 6)
        exclusions.append({f: flip[corner[f]] if i < 3 else corner[f] for i, f in enumerate(chosen)})
    pairs = rng.sample(list(itertools.combinations(names, 2)), n_shared)
    exclusions += [{f: corner[f] for f in pair} for pair in pairs]
    return {"factors": factors, "exclusions": [dict(sorted(e.items())) for e in exclusions]}


class SpaceExcl(Workload):
    """Generated exclusion-heavy spaces; one op = ``space size`` plus ``plan paired``."""

    name = "space_excl"
    min_ops = 108
    trace_rounds = 1
    n = 48

    def __init__(self, root: Path, tmp: Path, seed: int, digests: Mapping[str, str]):
        super().__init__(root, tmp, seed, digests)
        rng = random.Random(seed)
        self.spaces: list[tuple[Path, dict[str, Any], str]] = []
        for i, (shared, rand) in enumerate(SPACE_SCHEDULE):
            doc = make_space(rng, shared, rand)
            path = tmp / f"space_{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.spaces.append((path, doc, space_size_text(doc)))

    def setup_code(self) -> str:
        loads = "; ".join(f"effattr.load_space_file({str(p)!r})" for p, _, _ in self.spaces)
        return self._setup_prelude() + loads

    def round(self, k: int, tally: Tally) -> None:
        size_out, plan_out = self.tmp / "size.txt", self.tmp / "plan_out.txt"
        plan_path = self.tmp / "plan.json"
        for i, (path, doc, expected_size) in enumerate(self.spaces):
            for stale in (size_out, plan_out, plan_path):
                stale.unlink(missing_ok=True)
            tally.begin_op()
            rc1, s1, err1 = cli_call(["space", "size", str(path), "--out", str(size_out)])
            rc2, s2, err2 = cli_call(
                ["plan", "paired", "--space", str(path), "--plan-out", str(plan_path),
                 "--n", str(self.n), "--r", "1", "--cui-a", "a", "--cui-ref", "b",
                 "--seed", str(self.seed + k), "--out", str(plan_out)]
            )
            tally.attempted += 1
            tally.timed_s += s1 + s2
            tally.record(f"space {i}", s1 + s2)
            if rc1 != 0 or rc2 != 0:
                tally.fail(1, f"space {i} round {k}: exits {rc1}/{rc2}: {(err1 + err2)[-300:]}")
                continue
            problems = expect_text(expected_size)(_read(size_out))
            problems += expect_text(f"configs={2 * self.n} trials={2 * self.n} cost={self.n}\n")(_read(plan_out))
            problems += check_paired_plan(doc, json.loads(_read(plan_path)), self.n, 1)
            if problems:
                tally.fail(1, f"space {i} round {k}: " + "; ".join(problems))


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (MetaSmt, CliFiles, SpaceExcl)}
