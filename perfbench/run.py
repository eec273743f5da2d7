"""Benchmark of the kirwan command line, one fresh process per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run works through the workload's seeded
data in a closed loop for S seconds: it sets up each datum's inputs when it
first needs them, then runs the datum's jobs one at a time, each in a new
interpreter that times `import kirwan.cli` and `kirwan.cli.main(argv)`.
setup_s is the median time to set up the first schedule cycle of the data,
sampled SETUP_REPS times across the run; set-up is kept out of the loop's
clock.
After the loop every output is checked against the oracles in checks.py, and
against the output the same job gave in earlier runs (digests of outputs and
inputs are kept in .perfbench/digests.json).

--trace 0 reports the end-to-end metrics.  --trace 1 runs each job both
untraced and traced, and reports per-layer metrics from the traced children
plus the tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
JOB_TIMEOUT_S = 60
SETUP_REPS = 7


def run_child(job_id: int, argv: list[str], cwd: Path, trace: bool) -> dict:
    # -S: no site hooks, so the installed site-packages (whose .pth files may
    # import unrelated packages) add nothing to a job that needs only the stdlib
    cmd = [sys.executable, "-S", str(CHILD), str(SRC), "1" if trace else "0", str(job_id), "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failure": f"timed out after {JOB_TIMEOUT_S} s"}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"failure": f"child exited {proc.returncode} without a result: {tail[0]}"}
    if result["error"]:
        result["failure"] = "traceback: " + result["error"].strip().splitlines()[-1]
    elif result["stderr"]:
        result["failure"] = "stderr: " + result["stderr"].strip().splitlines()[-1]
    return result


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def set_up_cycle(workload: str, seed: int, setup_dir: Path) -> float:
    """Seconds to set up (generate, mutate, write) the first schedule cycle of
    the run's data into an emptied directory."""
    import workloads

    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir()
    t0 = time.perf_counter()
    for new_files, _ in itertools.islice(workloads.data(workload, seed), workloads.CYCLE[workload]):
        for name, text in new_files.items():
            (setup_dir / name).write_text(text)
    return time.perf_counter() - t0


def closed_loop(workload: str, seed: int, run_dir: Path, seconds: float, trace: bool):
    """Run the workload's jobs in order, one at a time, for `seconds`.

    A datum's inputs are set up (generated, mutated, written) when the loop
    first needs them.  At SETUP_REPS evenly spaced times the loop also sets up
    the first schedule cycle again, in a side directory, and times it: on a
    shared host the CPU's speed drifts within seconds, so samples spread
    over the run give a steadier median than samples taken back to back.  Both kinds of
    set-up are kept out of the loop's clock.  With `trace`, each job runs
    untraced and traced, in alternating order so that neither side always
    runs second.
    """
    import workloads

    stream = workloads.data(workload, seed)
    setup_dir = run_dir.with_name(run_dir.name + "-setup")
    files: dict[str, str] = {}
    jobs, data_setup_s, setup, untraced, traced = [], [], [], [], []
    start, off_clock = time.perf_counter(), 0.0
    i = 0
    while (elapsed := time.perf_counter() - start - off_clock) < seconds:
        t0 = time.perf_counter()
        if len(setup) < SETUP_REPS and elapsed >= len(setup) * seconds / SETUP_REPS:
            setup.append(set_up_cycle(workload, seed, setup_dir))
        while i == len(jobs):
            t1 = time.perf_counter()
            new_files, new_jobs = next(stream)
            for name, text in new_files.items():
                (run_dir / name).write_text(text)
            data_setup_s.append(time.perf_counter() - t1)
            files.update(new_files)
            jobs.extend(new_jobs)
        off_clock += time.perf_counter() - t0
        job = jobs[i]
        order = [(untraced, False), (traced, True)][: 1 + trace]
        for sink, traced_run in order[:: -1 if i % 2 else 1]:
            result = run_child(i, job.argv, run_dir, traced_run)
            result["job"] = i
            if job.kind == "generate" and (run_dir / job.expect["out"]).is_file():
                result["written"] = (run_dir / job.expect["out"]).read_text()
            sink.append(result)
        i += 1
    wall = time.perf_counter() - start - off_clock
    while len(setup) < SETUP_REPS:  # a run whose jobs outlast the sampling times
        setup.append(set_up_cycle(workload, seed, setup_dir))
    shutil.rmtree(setup_dir)
    return files, jobs, data_setup_s, setup, untraced, traced, wall


def check_all(jobs, files, results, store: dict) -> list[str]:
    """Failure reasons, one per failed job run (empty when all are right)."""
    from checks import CHECKERS, Datum

    from kirwan.momentdata import load_manifold, manifold_to_json

    datums: dict[str, Datum] = {}
    failures = []
    for r in results:
        job = jobs[r["job"]]
        reason = r.get("failure")
        if reason is None:
            if job.datum not in datums:
                datums[job.datum] = Datum.parse(files[job.datum])
            reason = CHECKERS[job.kind](job, datums[job.datum], r["code"], r["stdout"])
        if reason is None and job.kind == "generate":
            written = r.get("written")
            if written != job.expect["text"]:
                reason = "written file differs from the set-up copy"
            elif manifold_to_json(load_manifold(written)) != written:
                reason = "written file does not reload and re-emit byte for byte"
        if reason is None:
            key = digest(json.dumps(job.argv), *(files[name] for name in job.reads))
            out = digest(r["stdout"], r.get("written", ""))
            if store.setdefault(key, out) != out:
                reason = "stdout differs from an earlier run of the same job"
        if reason is not None:
            failures.append(f"job {r['job']} ({job.kind} {' '.join(job.argv)}): {reason}")
    return failures


def load_store() -> dict:
    path = WORK / "digests.json"
    if path.is_file():
        return json.loads(path.read_text())
    return {"jobs": {}, "inputs": {}}


def save_store(store: dict) -> None:
    path = WORK / "digests.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, path)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(untraced: list[dict], wall: float, failed: int, attempted: int, setup: list[float]) -> dict:
    timed = [r for r in untraced if "job_s" in r]
    job_s = [r["job_s"] for r in timed]
    return {
        "jobs_per_s": {"value": len(untraced) / wall, "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(job_s), "unit": "s"},
        "job_s.p90": {"value": p90(job_s), "unit": "s"},
        "import_s.p50": {"value": statistics.median(r["import_s"] for r in timed), "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in timed), "unit": "MB"},
        "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kirwan" / "cli.py").is_file():
        print(f"kirwan sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)

    WORK.mkdir(exist_ok=True)
    # compile the package's bytecode once, as an installed package would have it
    warm = run_child(-1, ["--help"], WORK, trace)
    if "failure" in warm:
        print(f"warm-up child failed: {warm['failure']}", file=sys.stderr)
        return 2

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    files, jobs, data_setup_s, setup, untraced, traced, wall = closed_loop(
        args.workload, args.seed, run_dir, args.seconds, trace
    )

    store = load_store()
    failures = check_all(jobs, files, untraced + traced, store["jobs"])
    for name in sorted(files):
        key = f"{args.workload}:{args.seed}:{name}"
        if store["inputs"].setdefault(key, digest(files[name])) != digest(files[name]):
            failures.append(f"input {key} differs from an earlier run")
    save_store(store)

    seen, repeats = set(), 0
    for r in untraced:
        datum = jobs[r["job"]].datum
        repeats += datum in seen
        seen.add(datum)
    attempted = len(untraced) + len(traced)
    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    inputs = digest(*(f"{name}\n{files[name]}" for name in sorted(files)))
    print(f"inputs sha256 {inputs} ({len(files)} files of {len(data_setup_s)} data)")
    print(f"jobs run: {len(untraced)} untraced, {len(traced)} traced, in {wall:.3f} s")
    print(f"jobs whose datum appeared earlier in the run: {repeats}/{len(untraced)} = {repeats / len(untraced):.3f}")
    print(f"set-up of one schedule cycle ({workloads.CYCLE[args.workload]} data), {SETUP_REPS} times:"
          f" median {statistics.median(setup):.4f} s; of each datum in the loop: {sum(data_setup_s):.3f} s in all")

    job_s = [r["job_s"] for r in untraced if "job_s" in r]
    if trace:
        import spans

        pairs = [(t, u) for t, u in zip(traced, untraced) if "trace" in t and "job_s" in u]
        metrics, lines = spans.summarize(args.workload, [t for t, _ in pairs], [u for _, u in pairs])
    else:
        metrics, lines = end_to_end(untraced, wall, failed, attempted, setup), []
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"job_s samples: {len(job_s)}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
