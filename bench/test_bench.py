"""Tests of the benchmark itself: generator, checker, tracer and metric names.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import check
import gen
import run
import workloads
from tracer import Tracer

SMALL = {"pretrain-zipf": 5_000, "seed-longtail": 600, "score-mixed": 60}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "info.json"}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    size = SMALL[workload]
    first = gen.generate(workload, 3, size, tmp_path / "a")
    second = gen.generate(workload, 3, size, tmp_path / "b")
    other = gen.generate(workload, 4, size, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    first.pop("generate_s"), second.pop("generate_s")
    assert first == second


def test_input_cache_reuses_entries(tmp_path):
    entry, info = gen.ensure_inputs(tmp_path, "score-mixed", 5, 40)
    stamp = (entry / "info.json").read_text()
    again, info_again = gen.ensure_inputs(tmp_path, "score-mixed", 5, 40)
    assert again == entry and info_again == info
    assert (entry / "info.json").read_text() == stamp


def _pass(tmp_path: Path, workload: str) -> tuple[list, dict, Path, Path]:
    inputs = tmp_path / "inputs"
    info = gen.generate(workload, 2, SMALL[workload], inputs)
    work = tmp_path / "work"
    work.mkdir()
    steps = workloads.plan(workload, info, inputs, work, 2)
    tally = run.Tally()
    assert run.run_pass(steps, info, inputs, work, tally) is not None, tally.problems
    assert tally.failed == 0 and tally.attempted == len(steps)
    return steps, info, inputs, work


def _plant(path: Path, text: str) -> None:
    """Replace an output and keep its run manifest consistent with it, the way
    a buggy program that digests what it wrote would."""
    path.write_text(text, encoding="utf-8")
    for manifest in path.parent.glob("*.run.json"):
        doc = json.loads(manifest.read_text())
        if str(path) in doc["outputs"]:
            doc["outputs"][str(path)] = check.sha256(path)
            manifest.write_text(json.dumps(doc))


def _failed_ratio(steps, info, inputs, work) -> float:
    tally = run.Tally()
    for step in steps:
        tally.record(check.check_step(step, info, inputs, work))
    return tally.failed / tally.attempted


@pytest.fixture(scope="module")
def pretrain_pass(tmp_path_factory):
    return _pass(tmp_path_factory.mktemp("pretrain"), "pretrain-zipf")


def test_checker_catches_truncated_mixture(pretrain_pass):
    steps, info, inputs, work = pretrain_pass
    mixture = work / "mixture.tsv"
    original = mixture.read_text(encoding="utf-8")
    try:
        _plant(mixture, "".join(original.splitlines(keepends=True)[:-5]))
        assert _failed_ratio(steps, info, inputs, work) > 0
    finally:
        _plant(mixture, original)
    assert _failed_ratio(steps, info, inputs, work) == 0


def test_checker_catches_worker_dependent_augment(pretrain_pass):
    steps, info, inputs, work = pretrain_pass
    augmented = work / "augmented_2w.tsv"
    original = augmented.read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    try:
        _plant(augmented, "".join(lines[1:2] + lines[:1] + lines[2:]))
        problems = [p for s in steps for p in check.check_step(s, info, inputs, work)]
        assert any("1 and 2 workers" in p for p in problems)
        assert _failed_ratio(steps, info, inputs, work) > 0
    finally:
        _plant(augmented, original)


def test_checker_catches_unrecorded_output_change(pretrain_pass):
    steps, info, inputs, work = pretrain_pass
    sampled = work / "sampled.tsv"
    original = sampled.read_text(encoding="utf-8")
    try:
        sampled.write_text(original + original.splitlines(keepends=True)[0], encoding="utf-8")
        problems = [p for s in steps for p in check.check_step(s, info, inputs, work)]
        assert any("manifest digest" in p for p in problems)
    finally:
        sampled.write_text(original, encoding="utf-8")


def test_checker_catches_shifted_score(tmp_path):
    steps, info, inputs, work = _pass(tmp_path, "score-mixed")
    row = next(work.glob("row_*.tsv"))
    header, line = row.read_text(encoding="utf-8").splitlines()
    pair, bleu, *rest = line.split("\t")
    _plant(row, "\n".join([header, "\t".join([pair, f"{float(bleu) + 0.01:.4f}", *rest])]) + "\n")
    assert _failed_ratio(steps, info, inputs, work) > 0


def test_seed_longtail_pass_is_clean(tmp_path):
    _pass(tmp_path, "seed-longtail")


def test_tracer_self_time_and_lazy_arguments():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.function("leaf", leaf)

    def drain(rows):
        for _ in rows:
            time.sleep(0.01)

    traced_drain = tracer.consumer("drain", drain)

    def command():
        def rows():
            for _ in range(3):
                time.sleep(0.01)  # the command's own work, done lazily
                traced_leaf()
                yield 1

        traced_drain(rows())

    tracer.function("command", command)()
    counts = tracer.counts
    assert counts["leaf.calls"] == 3
    assert counts["leaf.self_s"] == pytest.approx(0.06, abs=0.02)
    assert counts["drain.self_s"] == pytest.approx(0.03, abs=0.015)
    assert counts["command.self_s"] == pytest.approx(0.03, abs=0.015)


def test_metric_names_are_valid():
    doc = json.loads((gen.ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert pattern.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One small traced run per workload, with its work directory kept apart."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "WORK", tmp_path_factory.mktemp("traced"))
        for workload, size in SMALL.items():
            patch.setitem(gen.SIZES, workload, size)
        return {w: run.run_workload(w, 2, 0.0, trace=True) for w in gen.WORKLOADS}


def test_untraced_run_emits_exactly_the_declared_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(gen.SIZES, "score-mixed", SMALL["score-mixed"])
    result = run.run_workload("score-mixed", 2, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_emits_exactly_the_declared_metrics(traced_runs):
    for workload, result in traced_runs.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert list(result["metrics"]) == list(run.PER_LAYER), workload
    # Every declared layer metric is measured on some workload, so none is
    # a name without a source.
    unmeasured = [
        name for name in run.PER_LAYER
        if not any(r["metrics"][name]["value"] for r in traced_runs.values())
    ]
    assert unmeasured == []
