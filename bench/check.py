"""Output checks for one pass of a workload.

Each check tests an invariant that any correct version of the pipeline
keeps, never golden bytes, so a change that alters output bytes on purpose
(a new RNG stream, say) is not counted as a failure. Every check returns a
list of problems; an empty list means the step passed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

from gen import ROOT, SEED_SUBSET_RATIOS, largest_remainder
from workloads import Step, reduced_size

SCORE_TOLERANCE = 0.005
RATE_BAND = (0.29, 0.31)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))


def column_counts(path: Path, column: int) -> Counter:
    counts: Counter = Counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            counts[line.rstrip("\n").split("\t")[column]] += 1
    return counts


def _manifest(out: Path) -> dict:
    return json.loads(Path(str(out) + ".run.json").read_text(encoding="utf-8"))


def check_manifest(out: Path, digests: dict[str, str] | None = None) -> list[str]:
    """Every output digest in ``<out>.run.json`` equals the file's SHA-256.

    The digests found are added to ``digests``, keyed by file name.
    """
    try:
        doc = _manifest(out)
    except (OSError, ValueError) as exc:
        return [f"{out.name}: unreadable run manifest: {exc}"]
    problems = []
    for path, digest in doc.get("outputs", {}).items():
        if not Path(path).exists():
            problems.append(f"{out.name}: manifest names missing output {path}")
            continue
        actual = sha256(Path(path))
        if digests is not None:
            digests[Path(path).name] = actual
        if actual != digest:
            problems.append(f"{out.name}: manifest digest differs from {Path(path).name}")
    if not doc.get("outputs"):
        problems.append(f"{out.name}: manifest lists no outputs")
    return problems


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


# ---------------------------------------------------------------------------
# Per-step invariants


def _ingest(info: dict, work: Path, out: Path) -> list[str]:
    problems: list[str] = []
    kept = count_lines(out)
    skipped = count_lines(Path(str(out) + ".skipped.txt"))
    _expect(problems, "ingest kept + skipped", kept + skipped, info["pairs"])
    _expect(problems, "ingest per-language rows", dict(column_counts(out, 1)), info["kept_counts"])
    return problems


def _stats(info: dict, work: Path, out: Path) -> list[str]:
    rows = dict(line.split("\t") for line in out.read_text(encoding="utf-8").splitlines())
    got = {tag: int(n) for tag, n in rows.items()}
    problems: list[str] = []
    _expect(problems, "stats counts", got, info["kept_counts"])
    return problems


def _reduce(info: dict, work: Path, out: Path) -> list[str]:
    got = column_counts(out, 1)
    kept = info["kept_counts"]
    halved = sorted(t for t in kept if got[t] != kept[t])
    problems: list[str] = []
    _expect(problems, "reduce halved languages", halved, info["over_threshold"])
    want = {t: math.ceil(0.5 * n) if t in info["over_threshold"] else n for t, n in kept.items()}
    _expect(problems, "reduce per-language rows", dict(got), want)
    return problems


def _sample(info: dict, work: Path, out: Path) -> list[str]:
    problems: list[str] = []
    budget = reduced_size(info)
    _expect(problems, "sample rows", count_lines(out), budget)
    plan_lines = Path(str(out) + ".plan.tsv").read_text(encoding="utf-8").splitlines()[1:]
    planned = {}
    for line in plan_lines:
        tag, _n, _p, c = line.split("\t")
        if int(c):
            planned[tag] = int(c)
    _expect(problems, "sample plan total", sum(planned.values()), budget)
    _expect(problems, "sample per-language rows vs plan", dict(column_counts(out, 1)), planned)
    return problems


def _seed_select(info: dict, work: Path, out: Path) -> list[str]:
    problems: list[str] = []
    _expect(problems, "seed-select rows", count_lines(out), info["budget"])
    want = largest_remainder(info["kept_subsets"], info["budget"])
    _expect(problems, "seed-select composition", dict(column_counts(out, 4)), want)
    origins = column_counts(out, 5)
    _expect(problems, "seed-select origins",
            dict(origins), {f"seed:{label}": n for label, n in want.items()})
    unknown = sorted(set(info["kept_subsets"]) - set(SEED_SUBSET_RATIOS))
    _expect(problems, "seed-select unknown subsets", unknown, [])
    return problems


def _augment(info: dict, work: Path, out: Path) -> list[str]:
    problems: list[str] = []
    stats = _manifest(out)["config"]["stats"]
    _expect(problems, "augment rows vs manifest", count_lines(out), stats["pairs_augmented"])
    if info["workload"] == "pretrain-zipf":
        rate = stats["tokens_replaced"] / stats["tokens_matched"]
        if not RATE_BAND[0] <= rate <= RATE_BAND[1]:
            problems.append(f"augment replacement rate {rate:.4f} outside {RATE_BAND}")
        other = work / ("augmented_1w.tsv" if out.name == "augmented_2w.tsv" else "augmented_2w.tsv")
        if other.exists() and sha256(other) != sha256(out):
            problems.append("augment output differs between 1 and 2 workers")
    return problems


def _mixture(info: dict, work: Path, out: Path) -> list[str]:
    problems: list[str] = []
    doc = _manifest(out)
    original = Path(doc["config"]["in"])
    augmented = Path(doc["config"]["aug"])
    c = count_lines(original)
    a = count_lines(augmented)
    _expect(problems, "mixture rows", count_lines(out), 2 * c + a)
    origins = column_counts(out, 5)
    _expect(problems, "mixture origins", dict(origins), {"orig": c, "rev": c, "aug": a})
    return problems


@functools.cache
def _oracle():
    """The test suite's independent reference scorer, loaded from its file."""
    spec = importlib.util.spec_from_file_location("oracle_metrics", ROOT / "tests" / "oracle_metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_scores(inputs: Path, info: dict) -> dict[str, list[float]]:
    """Oracle (bleu, chrf, chrf++) per pair, cached beside the inputs."""
    cache = inputs / "oracle.json"
    if cache.exists():
        return json.loads(cache.read_text())
    oracle = _oracle()
    scores = {}
    for entry in info["score_pairs"]:
        hyps = (inputs / entry["hyp"]).read_text(encoding="utf-8").splitlines()
        refs = (inputs / entry["ref"]).read_text(encoding="utf-8").splitlines()
        scores[entry["pair"]] = [
            oracle.bleu(hyps, refs),
            oracle.chrf(hyps, refs, word_order=0),
            oracle.chrf(hyps, refs, word_order=2),
        ]
    cache.write_text(json.dumps(scores))
    return scores


def _score_values(path: Path) -> dict[str, list[float]]:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        pair, *values = line.split("\t")
        rows[pair] = [float(v) for v in values]
    return rows


def _compare_scores(problems: list[str], got: dict, want: dict) -> None:
    if sorted(got) != sorted(want):
        problems.append(f"score pairs: got {sorted(got)}, want {sorted(want)}")
        return
    for pair, values in want.items():
        for name, g, w in zip(("bleu", "chrf", "chrf++"), got[pair], values):
            if abs(g - w) >= SCORE_TOLERANCE:
                problems.append(f"{pair} {name}: got {g}, oracle {w:.4f}")


def _score(out: Path, oracle: dict) -> list[str]:
    problems: list[str] = []
    _compare_scores(problems, _score_values(out), oracle)
    return problems


def _report(out: Path, oracle: dict) -> list[str]:
    problems: list[str] = []
    rows = _score_values(out)
    average = rows.pop("Avg.", None)
    _compare_scores(problems, rows, oracle)
    if rows and average is not None:
        want = [round(sum(v[i] for v in rows.values()) / len(rows), 2) for i in range(3)]
        _expect(problems, "report average row", average, want)
    elif average is None:
        problems.append("report has no Avg. row")
    return problems


_STEP_CHECKS = {
    "ingest": _ingest,
    "stats": _stats,
    "reduce": _reduce,
    "sample": _sample,
    "seed-select": _seed_select,
    "augment": _augment,
    "mixture": _mixture,
}


def check_step(
    step: Step, info: dict, inputs: Path, work: Path, digests: dict[str, str] | None = None
) -> list[str]:
    """All problems with one step's outputs, manifest digests included; the
    output digests are added to ``digests``."""
    out = work / step.out
    if not out.exists():
        return [f"{step.name}: output {step.out} missing"]
    try:
        problems = check_manifest(out, digests)
        if step.command in ("score", "report"):
            oracle = oracle_scores(inputs, info)
            if step.command == "score":
                pair = step.name.removeprefix("score_")
                problems += _score(out, {pair: oracle[pair]})
            else:
                problems += _report(out, oracle)
        else:
            problems += _STEP_CHECKS[step.command](info, work, out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return [f"{step.name}: {p}" for p in problems]


def check_repeat(step: Step, work: Path, reference: dict[str, str]) -> list[str]:
    """A repeated pass on the same inputs and seed: its outputs must match
    their manifest and be byte-identical to those of a pass that passed
    :func:`check_step`, which makes them correct too."""
    out = work / step.out
    if not out.exists():
        return [f"{step.name}: output {step.out} missing"]
    digests: dict[str, str] = {}
    problems = check_manifest(out, digests)
    if not problems and digests != reference:
        problems.append("outputs differ from an earlier pass with the same inputs and seed")
    return [f"{step.name}: {p}" for p in problems]
