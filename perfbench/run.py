"""gridhalo benchmark: real CLI invocations, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests [--workload NAME]

Each invocation is a fresh ``python3 perfbench/child.py`` process that
imports ``gridhalo`` from ``src/`` and calls ``gridhalo.cli.main`` with the
workload's arguments and a fresh ``--out`` directory.  A run keeps starting
invocations while the next one is expected to end within ``--seconds`` (at
least one runs), then adds set-up-only probes until it holds SETUP_SAMPLES
set-up times, and reports medians.  Every invocation is checked: exit code
0, no ``FAIL`` checklist line, and the sha256 of each deterministic
artifact equal to ``digests.json``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced invocations and prints the
per-layer metrics.  The last stdout line is the JSON result; the lines
before it are the readable report.  A record of each run, with the
environment, goes to ``.perfbench/results/``.

``--seed`` is recorded but never forwarded to ``gridhalo --seed``: no
runner draws a random number, and the seed lands in ``report.json``.
``--use-cache`` is never passed, since a cache hit skips the work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORK_DIR = os.path.join(ROOT, ".perfbench")

# Sizes are cut below the CLI defaults where one invocation would not fit
# the run budget; NOTES.md gives the reasons and the full-size timings.
# Only halo-sparse and staged-resonance are in BENCHMARK.json: the others
# spend most of their time in Python-level loops, whose speed swings most
# with load elsewhere on a shared host, and their run-to-run spread is too
# wide to gate on.  They are the only workloads that reach the full-field
# path, the rearrangement and the generic-rotation witness, so they stay
# runnable by hand.
WORKLOADS = {
    "halo-sparse": ("halo", "--grid", "9", "--h-list", "4,64,256"),
    "staged-resonance": ("resonance", "--depth", "3"),
    "maxfield-full": ("maxfield", "--grid", "7"),
    "staged-deep": ("rearrange", "--style", "deep", "--depth", "3"),
    "zygmund-rot": ("zygmund", "--depth", "3"),
}
# deterministic artifacts; timings.txt carries wall-clock times
ARTIFACTS = (
    "report.json",
    "rows.csv",
    "rows.dat",
    "plan.json",
    "g.txt",
    "permutation.npy",
    "permutation.json",
    "field.txt",
)
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
CHILD_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _artifact_bytes(out_dir: str) -> int:
    total = 0
    for base, _, files in os.walk(out_dir):
        for name in files:
            if name != "timings.txt":
                total += os.path.getsize(os.path.join(base, name))
    return total


def invoke(workload: str, mode: str, tag: str, deadline: float, reference) -> dict:
    """One child process; returns its measurements and any failure."""
    out_dir = os.path.join(WORK_DIR, "runs", tag)
    sidecar = out_dir + ".json"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    cmd = [sys.executable, CHILD, sidecar, mode, "--", *WORKLOADS[workload], "--out", out_dir]
    env = dict(os.environ, **CHILD_THREADS)
    result = {"mode": mode, "fail": None}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - t_spawn, 1.0),
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(out_dir, ignore_errors=True)
        result["fail"] = "timed out"
        return result
    try:
        with open(sidecar) as fh:
            record = json.load(fh)
        os.remove(sidecar)
    except (OSError, json.JSONDecodeError):
        record = {}
    if "ready" in record:
        result["setup_s"] = record["ready"] - t_spawn
        result["import_s"] = record["import_s"]
        result["parse_s"] = record["parse_s"]
        result["versions"] = record["versions"]
        result["maxrss_mb"] = record["maxrss_kb"] / 1024.0
    if proc.returncode != 0:
        result["fail"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    elif "ready" not in record:
        result["fail"] = "no sidecar"
    if mode == "setup":
        return result
    result["wall_s"] = record.get("wall_s")
    result["trace"] = record.get("trace")
    if result["fail"] is None:
        failed = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAIL")]
        if failed:
            result["fail"] = "; ".join(failed)
    digests = {}
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            digests[name] = _sha256(path)
    result["digests"] = digests
    if reference is not None and result["fail"] is None:
        bad = [n for n in sorted(set(reference) | set(digests)) if reference.get(n) != digests.get(n)]
        if bad:
            result["fail"] = "digest mismatch: " + ", ".join(bad)
    result["artifact_bytes"] = _artifact_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def layer_metrics(inv: dict) -> dict:
    """Per-layer metrics of one traced invocation."""
    trace = inv["trace"]
    wall = inv["wall_s"]
    metrics = {}
    for name, span in trace["spans"].items():
        metrics[f"{name}.s"] = span["s"]
        metrics[f"{name}.self_s"] = span["self_s"]
        metrics[f"{name}.calls"] = span["calls"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            span["self_s"] for name, span in trace["spans"].items() if name.startswith(layer + ".")
        )
    counts = trace["counts"]
    metrics["maxop.shape_cells"] = counts.get("maxop.shape_cells", 0)
    shapes = counts.get("maxop.shapes", 0)
    metrics["maxop.useful_shape_ratio"] = counts.get("maxop.useful_shapes", 0) / shapes if shapes else 0.0
    metrics["resonance.independence_subsets"] = counts.get("resonance.independence_subsets", 0)
    metrics["reports.artifact_bytes"] = inv["artifact_bytes"]
    metrics["cli.import_s"] = inv["import_s"]
    metrics["config.parse_s"] = inv["parse_s"]
    metrics["trace.wall_s"] = wall
    metrics["trace.hook_s"] = trace["hook_s"]
    timed = wall - trace["hook_s"]
    metrics["trace.uncovered_share"] = max(timed - trace["covered_s"], 0.0) / timed
    return metrics


def _git_sha():
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    """What a result depends on besides the workload: code, machine, threads."""
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gridhalo")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            source.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                source.update(fh.read())
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": CHILD_THREADS,
    }


def run(workload: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    with open(DIGESTS) as fh:
        reference = json.load(fh)[workload]
    env = environment(seed)
    env["loadavg_start"] = os.getloadavg()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    tag = f"{workload}-{seed}-{os.getpid()}"
    # warm-up: bytecode compiled and the page cache filled before timing
    invoke(workload, "setup", f"{tag}-warm", deadline, None)

    modes = ("run", "trace") if traced else ("run",)
    invocations = []
    measure_start = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            invocations.append(invoke(workload, mode, f"{tag}-{len(invocations)}", deadline, reference))
        rounds += 1
        now = time.monotonic()
        # start another round only if it is expected to end within --seconds
        round_s = (now - measure_start) / rounds
        if now + round_s > min(measure_start + seconds, deadline):
            break
    setups = [inv["setup_s"] for inv in invocations if "setup_s" in inv]
    probes = []
    while len(setups) + len(probes) < SETUP_SAMPLES and time.monotonic() + 5 < deadline:
        probes.append(invoke(workload, "setup", f"{tag}-setup{len(probes)}", deadline, None))
    setups += [p["setup_s"] for p in probes if "setup_s" in p]
    env["loadavg_end"] = os.getloadavg()
    env["versions"] = next((inv["versions"] for inv in invocations if "versions" in inv), None)

    failed = [inv for inv in invocations + probes if inv["fail"] is not None]
    ok_plain = [inv for inv in invocations if inv["mode"] == "run" and inv["fail"] is None]
    summary = {  # name -> (median, unit, sample count)
        "setup_s": (_median(setups), "s", len(setups)),
        "wall_s": (_median(inv["wall_s"] for inv in ok_plain), "s", len(ok_plain)),
        "peak_rss_mb": (_median(inv.get("maxrss_mb") for inv in ok_plain), "MB", len(ok_plain)),
    }
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    layers = {}
    if traced:
        per_inv = [
            layer_metrics(inv) for inv in invocations if inv["mode"] == "trace" and inv["fail"] is None
        ]
        for name in sorted({name for m in per_inv for name in m}):
            layers[name] = _median(m.get(name, 0) for m in per_inv)
        layers["trace.overhead_s"] = layers.get("trace.wall_s", 0.0) - summary["wall_s"][0]
        values = layers
    else:
        values = {name: value for name, (value, _, _) in summary.items()}

    attempted = len(invocations) + len(probes)
    result = {
        "workload": workload,
        "argv": list(WORKLOADS[workload]),
        "trace": int(traced),
        "env": env,
        "attempted": attempted,
        "failed": len(failed),
        "error_rate": len(failed) / attempted,
        "failures": [inv["fail"] for inv in failed],
        "summary": summary,
        "layers": layers,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    path = os.path.join(WORK_DIR, "results", f"{workload}-seed{seed}-trace{int(traced)}.json")
    record = [{k: v for k, v in inv.items() if k != "trace"} for inv in invocations]
    with open(path, "w") as fh:
        json.dump(dict(result, invocations=record), fh, indent=1)
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}: gridhalo {' '.join(result['argv'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit, n) in result["summary"].items():
        print(f"  {name:<12} {value:12.4f} {unit:<3} median of {n}")
    print(
        f"  {'error_rate':<12} {result['error_rate']:12.4f}  "
        f"{result['failed']} failed of {result['attempted']} attempted"
    )
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")
    layers = result["layers"]
    if not layers:
        return
    print("  layer self time (s), median over traced invocations:")
    for layer in LAYERS:
        print(f"    {layer:<12} {layers.get(layer + '.self_s', 0.0):10.4f}")
    for name in (
        "trace.wall_s",
        "trace.overhead_s",
        "trace.hook_s",
        "trace.uncovered_share",
        "maxop.shape_cells",
        "maxop.useful_shape_ratio",
        "resonance.independence_subsets",
        "reports.artifact_bytes",
    ):
        print(f"    {name:<32} {layers.get(name, 0)}")
    print("  spans by self time: name calls s self_s")
    spans = sorted(
        {n[: -len(".calls")] for n in layers if n.endswith(".calls")},
        key=lambda n: -layers[n + ".self_s"],
    )
    for name in spans:
        print(
            f"    {name:<44} {layers[name + '.calls']:8.0f} "
            f"{layers[name + '.s']:10.4f} {layers[name + '.self_s']:10.4f}"
        )


def record_digests(workloads) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    for workload in workloads:
        inv = invoke(workload, "run", f"record-{workload}", time.monotonic() + RUN_LIMIT_S * 4, None)
        if inv["fail"] is not None:
            raise SystemExit(f"{workload}: {inv['fail']}")
        table[workload] = inv["digests"]
        print(f"{workload}: {len(inv['digests'])} artifacts")
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "gridhalo", "cli.py")):
        print(f"gridhalo sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print_report(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
