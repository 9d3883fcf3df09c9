"""Benchmark for bitextpipe: closed-loop CLI workloads with output checks.

Usage (from the repository root):

    python3 bench/run.py --workload pretrain-zipf --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, default seed

One client runs one ``python -m bitextpipe`` command at a time, the way a
user runs the CLI, repeating the workload's command chain for
``--seconds`` (at least one complete pass). Every pass is checked by
``check.py``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable table goes to standard error and the full results,
including per-command times and output digests, to
``bench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import gen
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_RUNS = 7
COMMAND_TIMEOUT_S = 150
TRACE_TIMEOUT_S = 170


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


END_TO_END = declared_units("end_to_end")
PER_LAYER = declared_units("per_layer")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def require_sources() -> None:
    """The benchmark builds nothing; it needs the package and test sources."""
    needed = [ROOT / "src" / "bitextpipe" / "cli.py", ROOT / "tests" / "conftest.py",
              ROOT / "tests" / "oracle_metrics.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        log(f"bench: missing sources under {ROOT}: {', '.join(missing)}")
        sys.exit(2)


def child_env() -> dict[str, str]:
    # Each command draws its own str hash secret, as a user's would, so the
    # byte-identity check of repeated passes also covers hash order.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONHASHSEED", None)
    env.pop("PIPELINE_CONFIG", None)  # a defaults file would change the commands
    return env


def run_command(argv: list[str], log_stem: Path, timeout: float = COMMAND_TIMEOUT_S) -> dict:
    """Run one process to completion: wall time and exit code."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        # A blocking wait returns as soon as the child exits; wait(timeout)
        # would poll, rounding every time up by as much as 50 ms.
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return {"wall_s": wall, "cpu_s": cpu, "returncode": proc.returncode}


def run_cli(step_argv, log_stem: Path) -> dict:
    """One ``bitextpipe`` command, with its peak RSS (pool workers included)."""
    peak_file = Path(f"{log_stem}.peak")
    peak_file.unlink(missing_ok=True)
    result = run_command([sys.executable, str(BENCH / "launch.py"), str(peak_file), *step_argv],
                         log_stem)
    result["rss_mib"] = int(peak_file.read_text()) / 1024 if peak_file.exists() else 0.0
    return result


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Tally:
    """Commands attempted and failed, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def exit_problem(name: str, result: dict, stem: Path) -> list[str]:
    if result["returncode"] == 0:
        return []
    tail = Path(f"{stem}.err").read_text(errors="replace").strip().splitlines()[-1:]
    return [f"{name}: exit code {result['returncode']} {' '.join(tail)}"]


def measure_setup(run_dir: Path, seed: int, tally: Tally) -> list[float]:
    one_row = gen.one_row_input(run_dir / "one_row.tsv")
    out = run_dir / "setup.tsv"
    walls = []
    for i in range(SETUP_RUNS):
        stem = run_dir / f"setup_{i}"
        argv = ["ingest", "--in", str(one_row), "--out", str(out), "--seed", str(seed)]
        result = run_cli(argv, stem)
        problems = exit_problem("setup", result, stem)
        if not problems:
            problems = check.check_manifest(out)
            if check.count_lines(out) != 1:
                problems.append("setup: expected one output row")
        tally.record(problems)
        walls.append(result["wall_s"])
    return walls


def run_pass(steps, info, inputs: Path, work: Path, tally: Tally,
             reference: dict | None = None) -> dict | None:
    """One pass over the chain; None when a command or check failed.

    Each step's output digests are kept with its result. Given the digests
    of a fully checked pass as ``reference``, a repeated pass is checked by
    comparing digests alone.
    """
    results = {}
    for i, step in enumerate(steps):
        stem = work / f"log_{step.name}"
        results[step.name] = run_cli(step.argv, stem)
        problems = exit_problem(step.name, results[step.name], stem)
        if problems:
            for _ in steps[:i]:  # ran, but cannot be checked without the failed step
                tally.record([])
            tally.record(problems)
            return None
    ok = True
    for step in steps:
        digests: dict[str, str] = {}
        if reference is None:
            problems = check.check_step(step, info, inputs, work, digests)
        else:
            digests = reference[step.name]["digests"]
            problems = check.check_repeat(step, work, digests)
        tally.record(problems)
        ok = ok and not problems
        results[step.name]["digests"] = digests
    return results if ok else None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    inputs, info = gen.ensure_inputs(WORK, workload, seed, gen.SIZES[workload])
    run_dir = fresh_dir(WORK / "run" / workload)
    steps = workloads.plan(workload, info, inputs, run_dir, seed)
    tally = Tally()
    setup = measure_setup(run_dir, seed, tally)
    if workload == "score-mixed":
        check.oracle_scores(inputs, info)  # fill the cache outside the timed loop

    # Closed loop: passes back to back until the next one would end more
    # than half a pass after ``seconds``; always at least one.
    passes = []
    started = time.perf_counter()
    while not tally.failed:
        pass_started = time.perf_counter()
        results = run_pass(steps, info, inputs, run_dir, tally, passes[0] if passes else None)
        if results is None:
            break
        passes.append(results)
        now = time.perf_counter()
        if now - started + 0.5 * (now - pass_started) > seconds:
            break

    # Mean, not median, over passes: throughput is then the pairs processed
    # over the summed command time of the whole window, which averages host
    # noise over all of it (on a shared 2-vCPU VM, its spread over ten runs
    # was 0.10-0.21 against 0.12-0.26 with per-command medians).
    step_s = {
        s.name: statistics.mean(p[s.name]["wall_s"] for p in passes) for s in steps
    } if passes else {}

    def peak(kind: str) -> float:
        return statistics.median(
            max(p[s.name]["rss_mib"] for s in steps if s.kind == kind) for p in passes
        ) if passes else 0.0

    metrics = {
        "setup_s": statistics.median(setup),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "throughput_pairs_per_s": info["pairs"] / sum(step_s.values()) if step_s else 0.0,
        "stream_rss_mib": peak("stream"),
        "inmem_rss_mib": peak("inmem"),
    }
    details = {
        "setup_walls_s": setup,
        "passes": passes,
        "step_mean_s": step_s,
        "input": {k: info[k] for k in ("pairs", "input_bytes", "generate_s")},
        "input_repeat_token_share": info.get("input_repeat_token_share"),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, tally, details


def traced(workload: str, seed: int) -> tuple[dict, Tally, dict]:
    inputs, info = gen.ensure_inputs(WORK, workload, seed, gen.SIZES[workload])
    run_dir = fresh_dir(WORK / "run" / workload)
    dirs = {mode: fresh_dir(run_dir / mode) for mode in ("untraced", "traced")}
    plans = {
        mode: [s for s in workloads.plan(workload, info, inputs, d, seed) if s.name != "augment_2w"]
        for mode, d in dirs.items()
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(
        {mode: [{"name": s.name, "argv": list(s.argv)} for s in steps]
         for mode, steps in plans.items()}
    ))
    if workload == "score-mixed":
        check.oracle_scores(inputs, info)
    out_path = run_dir / "trace.json"
    tally = Tally()
    result = run_command(
        [sys.executable, str(BENCH / "tracer.py"), str(plan_path), str(out_path)],
        run_dir / "trace", TRACE_TIMEOUT_S,
    )
    problems = exit_problem("trace", result, run_dir / "trace")
    if problems or not out_path.exists():
        tally.record(problems or ["trace: no trace written"])
        return {}, tally, {}
    doc = json.loads(out_path.read_text())
    digests: dict[str, dict[str, str]] = {}  # step -> mode -> digest of the primary output
    for mode, steps in plans.items():
        for step in steps:
            code = doc[mode][step.name]["returncode"]
            found: dict[str, str] = {}
            problems = [f"{mode} {step.name}: exit code {code}"] if code else (
                check.check_step(step, info, inputs, dirs[mode], found))
            if step.out in found:
                digests.setdefault(step.name, {})[mode] = found[step.out]
            tally.record(problems)
    for name, by_mode in digests.items():
        if len(set(by_mode.values())) > 1:
            tally.failed += 1
            tally.problems.append(f"{name}: traced output differs from untraced output")

    counts = doc["counts"]
    values = {name: counts.get(name, 0.0) for name in PER_LAYER}
    for step in plans["untraced"]:
        values[f"cli.{step.command}.wall_s"] += doc["untraced"][step.name]["wall_s"]
    seen = counts.get("augment.tokens_seen", 0)
    matched = counts.get("augment.tokens_matched", 0)
    values["augment.match_ratio"] = matched / seen if seen else 0.0
    values["augment.replace_ratio"] = counts.get("augment.tokens_replaced", 0) / matched if matched else 0.0
    values["augment.repeat_token_share"] = counts.get("augment.repeat_tokens", 0) / seen if seen else 0.0
    values["corpus.read_amplification"] = (
        counts.get("corpus.iter_lines.bytes", 0) + counts.get("manifest.sha256_file.bytes", 0)
    ) / info["input_bytes"]
    untraced_s = sum(r["wall_s"] for r in doc["untraced"].values())
    traced_s = sum(r["wall_s"] for r in doc["traced"].values())
    values["trace.overhead_ratio"] = traced_s / untraced_s
    metrics = {
        name: {"value": int(v) if PER_LAYER[name] in ("count", "B") else v, "unit": PER_LAYER[name]}
        for name, v in values.items()
    }
    details = {"untraced": doc["untraced"], "traced": doc["traced"], "digests": digests}
    return metrics, tally, details


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if trace:
        metrics, tally, details = traced(workload, seed)
    else:
        metrics, tally, details = end_to_end(workload, seed, seconds)
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  problems=tally.problems, details=details,
                  elapsed_s=time.perf_counter() - started)
    (results_dir / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    shutil.rmtree(WORK / "run" / workload, ignore_errors=True)  # outputs are large

    log(f"== {workload} seed={seed} trace={int(trace)} "
        f"attempted={tally.attempted} failed={tally.failed} "
        f"failed_ratio={tally.failed / max(tally.attempted, 1):.4f}")
    for problem in tally.problems[:20]:
        log(f"   problem: {problem}")
    if not trace and details:
        for name, value in details["step_mean_s"].items():
            log(f"   {name + '_s':<40} {value:10.4f} s   (mean of {len(details['passes'])} passes)")
    for name, m in metrics.items():
        log(f"   {name:<40} {m['value']:10.4f} {m['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bitextpipe benchmark")
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
