"""The dconn benchmark: one closed-loop client per workload.

Run from the root of a checkout (the directory that holds ``src/dconn``)::

    python3 perfbench/run.py --workload small-complexes --seed 1 --seconds 40 --trace 0

One process and one thread drive the four CLI commands in process through
``dconn.cli.main`` (and ``mechanical.del_step`` trajectories, which no CLI
command runs); each operation starts when the previous one has finished.
Operations come in passes, fixed batches drawn from the seed (see
``workloads.py``); a pass starts while a pass of average length still fits
in ``--seconds``.  Every output is checked.

Each operation is timed by wall clock and by the CPU time of this process
(``time.process_time``); the program runs on this one thread, with BLAS
pinned to one thread.  On a shared virtual machine both clocks move with the
speed the host gives it, by up to a factor of two over seconds to minutes,
so each operation is followed by a fixed reference block that does not touch
the program (``reference_block``), and the gated timings are CPU seconds
rescaled to the reference speed: an operation's CPU time times
``REF_NOMINAL_S`` over the mean block time of its pass (``scaled_s``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median rescaled
CPU time, see ``measure_setup``, of fresh processes that import the program,
write the first pass's inputs and run one warm-up operation of each kind),
``report_s`` (geometric mean, over the workload's kinds of operation, of the
median over passes of the pass's mean rescaled time per operation of that
kind), ``pass_s`` (median rescaled time of a pass) and ``peak_rss_mb``.
``--trace 1`` runs the same loop with every public function of the program
wrapped in spans (``tracer.py``), follows each traced pass with an untraced
pass on inputs no operation has seen, and prints per-layer metrics per pass,
the tracing overhead and the per-kind rescaled times of the untraced passes.
It fails the run if a public function of the program is bound anywhere
unwrapped, or if an untraced re-run of the first pass does not reproduce its
traced reports byte for byte.  The last line of stdout is one JSON object;
the lines before it and ``.perfbench/results/`` hold diagnostics: per-kind
wall, CPU and rescaled latencies with tail percentiles, failures,
golden-report drift and a record of the machine.  ``--record-golden`` rewrites
``perfbench/golden/<workload>.json.gz`` from the warm-up operations and the
first pass of the given seed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: OpenBLAS would otherwise size its pool to the
# machine (MAX_THREADS=64) for the tiny matrices this program uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import SPAN_CAP, Tracer  # noqa: E402

GOLDEN_DIR = HERE / "golden"
STATE_DIR = Path(".perfbench")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# reference_block's CPU time on a 2-core Intel Xeon VM at its faster speed;
# rescaled times are CPU seconds at the speed where the block takes this long.
REF_NOMINAL_S = 0.0025
REF_ROTATION = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
# CPU time, on the same machine at its faster speed, of a bare interpreter
# that imports numpy; set-up times are rescaled to it (see measure_setup).
NULL_NOMINAL_S = 0.13
# Pass indices of the untraced passes of a traced run, far from the traced ones.
UNTRACED_OFFSET = 10**6

END_TO_END = (
    ("setup_s", "s"),
    ("report_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics from the traced run, each averaged per pass: span calls
# and self times, counters, and values derived from them in per_layer_metrics.
_SPAN_CALLS = (
    "levi_civita.angle_defect", "levi_civita.curvature", "lie_group.exp", "lie_group.log",
    "lie_group.compose", "lie_group.inverse", "lie_group.adjoint", "lie_group.cayley",
    "bundle.act", "connection.eval_form", "connection.local_rep", "mechanical.del_step",
    "mechanical.mechanical_connection", "mechanical.discrete_momentum", "limits.chart_curve",
)
_SPAN_SELF = (
    "levi_civita.holonomy", "levi_civita.MetricComplex", "levi_civita.from_embedding",
    "levi_civita.from_edge_lengths", "levi_civita.connection_form",
    "levi_civita.quality_report", "levi_civita.total_defect", "meshes.read_off",
    "meshes.read_complex_json", "meshes.latitude_loop", "lie_group.exp", "lie_group.log",
    "lie_group.compose", "lie_group.inverse", "lie_group.adjoint", "lie_group.cayley",
    "connection.eval_form", "mechanical.del_step", "mechanical.mechanical_connection",
    "mechanical.discrete_momentum", "limits.estimate_order", "presets.resolve_connection",
    "cli.main",
)
LAYERS = ("lie_group", "bundle", "connection", "limits", "mechanical", "levi_civita",
          "meshes", "presets", "cli", "bench")
# The rescaled time of each report kind comes from the untraced passes of
# the traced run; it is 0 on workloads without that kind.
REPORT_KINDS = ("curvature", "holonomy", "decompose", "order")
PER_LAYER = (
    tuple((f"{kind}_report_s", "s") for kind in REPORT_KINDS)
    + (("del_steps_per_s", "1/s"), ("failed_frac", "ratio"))
    + tuple((f"{n}.calls", "count") for n in _SPAN_CALLS)
    + tuple((f"{n}.self_s", "s") for n in _SPAN_SELF)
    + (
        ("levi_civita.holonomy.steps", "count"),
        ("levi_civita.holonomy.s_per_step", "s"),
        ("lie_group.GroupElement.built", "count"),
        ("connection.local_rep.repeats", "count"),
        ("connection.local_rep.repeat_share", "ratio"),
        ("mechanical.d1_evals_per_solve", "count"),
    )
    + tuple((f"{layer}.total_self_s", "s") for layer in LAYERS)
    + (
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
    )
)


# -- the program --------------------------------------------------------------


def load_program(root: Path):
    """Import dconn from the checkout's own ``src``; refuse any other copy."""
    src = root / "src"
    if not (src / "dconn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dconn sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import dconn
    from dconn import (bundle, cli, connection, levi_civita, lie_group, limits,
                       mechanical, meshes, presets)

    if Path(dconn.__file__).resolve().parent != (src / "dconn").resolve():
        raise SystemExit(f"perfbench: imported dconn from {dconn.__file__}, not {src}")
    modules = (lie_group, bundle, connection, limits, mechanical, levi_civita, meshes,
               presets, cli)
    return {m.__name__.rsplit(".", 1)[-1]: m for m in modules}


class Runner:
    """Executes operations and keeps their timings and outcomes."""

    def __init__(self, program: dict, tracer: Tracer | None = None):
        self.p = program
        self.tracer = tracer
        self.trajectory = (tracer.wrap("bench.del_trajectory", self._trajectory)
                           if tracer else self._trajectory)

    def _trajectory(self, spec: dict):
        lg, presets, mech = self.p["lie_group"], self.p["presets"], self.p["mechanical"]
        L = presets.LAGRANGIAN_FIXTURES[spec["fixture"]]()
        b = L.bundle

        def point(d):
            return b.point(d["shape"], lg.element(b.group, np.array(d["fiber"])))

        path = [point(spec["first"]), point(spec["second"])]
        for _ in range(spec["steps"]):
            path.append(mech.del_step(L, path[-2], path[-1]))
        return L, path

    def _del_report(self, spec: dict, L, path) -> str:
        momenta = [self.p["mechanical"].discrete_momentum(
            L, self.p["bundle"].PairElement(u, v)).covector for u, v in zip(path, path[1:])]
        drift = max(float(np.max(np.abs(m - momenta[0]))) for m in momenta)
        last = path[-1]
        return wl.canonical_json({
            "command": "del", "fixture": spec["fixture"], "steps": spec["steps"],
            "final": {"shape": last.shape.coords.tolist(), "fiber": last.fiber.matrix.tolist()},
            "momentum_drift": drift,
        })

    def execute(self, op: wl.Op, op_id: int) -> dict:
        """Run one operation; timing covers only the call into the program."""
        result = {"kind": op.kind, "label": op.label, "key": op.key, "ok": False,
                  "known": False, "error": None, "text": None}
        if op.kind != "del":
            out = op.config.with_name(op.config.name.replace(".json", ".report.json"))
            argv = [op.kind, "--config", str(op.config), "--out", str(out)]
        err = io.StringIO()
        if self.tracer:
            self.tracer.begin_op(op_id)
            self.tracer.enabled = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(err):
                if op.kind == "del":
                    L, path = self.trajectory(op.trajectory)
                    rc = 0
                else:
                    rc = self.p["cli"].main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            result["error"] = f"raised {exc!r}"
        finally:
            result["seconds"] = time.perf_counter() - t0
            result["cpu_s"] = time.process_time() - c0
            if self.tracer:
                self.tracer.enabled = False
        if result["error"]:
            return result
        if rc != 0:
            stderr = err.getvalue().strip()
            if op.known_failure and rc == 2 and op.known_failure in stderr:
                result["known"] = True
            else:
                result["error"] = f"exit {rc}: {stderr}"
            return result
        text = self._del_report(op.trajectory, L, path) if op.kind == "del" else out.read_text()
        result["text"] = text
        try:
            result["error"] = wl.check(op, json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            result["error"] = f"malformed report: {exc!r}"
        result["ok"] = result["error"] is None
        return result


# -- golden reports -------------------------------------------------------------


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_golden(workload: str) -> dict:
    path = golden_path(workload)
    if not path.is_file():
        return {}
    return json.loads(gzip.decompress(path.read_bytes()))


def write_golden(workload: str, results: list[dict]) -> None:
    entries = {r["key"]: {"kind": r["kind"], "label": r["label"], "text": r["text"]}
               for r in results if r["ok"]}
    data = json.dumps(entries, sort_keys=True, indent=1).encode()
    GOLDEN_DIR.mkdir(exist_ok=True)
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as f:
        f.write(data)
    golden_path(workload).write_bytes(buf.getvalue())


def drift(a, b) -> float:
    """Largest numeric difference between two JSON values; inf if shapes differ."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return 0.0 if a == b else math.inf
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((drift(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((drift(a[k], b[k]) for k in a), default=0.0)
    return math.inf


class GoldenTally:
    def __init__(self, golden: dict):
        self.golden = golden
        self.compared = 0
        self.identical = 0
        self.max_drift = 0.0

    def add(self, result: dict) -> None:
        ref = self.golden.get(result["key"])
        if ref is None or result["text"] is None:
            return
        self.compared += 1
        if ref["text"] == result["text"]:
            self.identical += 1
        else:
            self.max_drift = max(self.max_drift, drift(json.loads(ref["text"]),
                                                       json.loads(result["text"])))


# -- statistics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(xs) * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}", xs[math.ceil(q / 100.0 * len(xs)) - 1]
    return None


CLOCKS = {"wall": "seconds", "cpu": "cpu_s", "scaled": "scaled_s"}


def latency_stats(samples: list[float], pass_means: list[float]) -> dict:
    entry = {"median_s": statistics.median(samples) if samples else None,
             "pass_mean_median_s": statistics.median(pass_means) if pass_means else None,
             "pass_means_s": pass_means}
    t = tail(samples)
    if t:
        entry["tail"] = t
    return entry


def summarize(workload: wl.Workload, passes: list[list[tuple[wl.Op, dict]]]) -> dict:
    """Per-kind latencies and per-pass times, by each of ``CLOCKS``."""
    kinds = {}
    for kind in workload.kinds:
        ok = [[(op, r) for op, r in ops if op.kind == kind and r["ok"]] for ops in passes]
        entry = {"n": sum(map(len, ok))}
        for clock, field in CLOCKS.items():
            # A trajectory counts per step, so its figure compares with one report.
            per_pass = [[r[field] / (op.trajectory["steps"] if kind == "del" else 1)
                         for op, r in rows] for rows in ok]
            entry[clock] = latency_stats([x for xs in per_pass for x in xs],
                                         [statistics.fmean(xs) for xs in per_pass if xs])
        kinds[kind] = entry
    all_results = [r for ops in passes for _, r in ops]
    dels = [(op, r) for ops in passes for op, r in ops if op.kind == "del" and r["ok"]]
    del_steps = sum(op.trajectory["steps"] for op, _ in dels)
    return {
        "kinds": kinds,
        "passes": len(passes),
        **{f"pass_{clock}_s": [sum(r[field] for _, r in ops) for ops in passes]
           for clock, field in CLOCKS.items()},
        "attempted": len(all_results),
        "failed": sum(1 for r in all_results if not r["ok"] and not r["known"]),
        "known_failures": sum(1 for r in all_results if r["known"]),
        "del_steps_per_s": {clock: del_steps / t if (t := sum(r[field] for _, r in dels)) else None
                            for clock, field in CLOCKS.items()},
        "errors": sorted({f"{r['label']} {r['kind']}: {r['error']}"
                          for r in all_results if r["error"]})[:20],
    }


def machine_record() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- runs ---------------------------------------------------------------------------


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reference_block() -> float:
    """CPU seconds of a fixed block of work that does not touch the program.

    Small-matrix numpy calls and a Python loop, the two kinds of work the
    program's time is made of; the block's time follows the machine's speed.
    """
    c0 = time.process_time()
    m = np.eye(4)
    for _ in range(300):
        m = m @ REF_ROTATION
        m = m / np.linalg.norm(m)
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.process_time() - c0


def run_ops(runner: Runner, ops: list[wl.Op], first_id: int = 0) -> list[tuple[wl.Op, dict]]:
    """Run ``ops`` in order, each followed by a reference block, and rescale
    each operation's CPU time by the blocks' mean time (``scaled_s``)."""
    done, ref_s = [], 0.0
    for i, op in enumerate(ops):
        done.append((op, runner.execute(op, first_id + i)))
        ref_s += reference_block()
    scale = REF_NOMINAL_S * len(ops) / ref_s
    for _, r in done:
        r["scaled_s"] = r["cpu_s"] * scale
    return done


def setup_probe(args, program) -> int:
    """What a fresh process pays before its first timed report."""
    work = STATE_DIR / "work" / f"{args.workload}-probe"
    workload = wl.make_workload(args.workload, args.seed)
    workload.make_pass(0, fresh_dir(work / "p0"))
    runner = Runner(program)  # run_ops would add reference blocks to the set-up
    done = [runner.execute(op, i)
            for i, op in enumerate(workload.warmup(fresh_dir(work / "warmup")))]
    shutil.rmtree(work, ignore_errors=True)
    return 0 if all(r["ok"] for r in done) else 1


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_child(cmd: list[str]) -> tuple[float, float]:
    """Wall and CPU seconds of one child process, which must succeed."""
    t0, c0 = time.perf_counter(), children_cpu_s()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=PROBE_TIMEOUT_S, env=os.environ.copy())
    wall, cpu = time.perf_counter() - t0, children_cpu_s() - c0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {cmd[1:]} failed: {proc.stderr.decode()[-2000:]}")
    return wall, cpu


def measure_setup(args) -> dict[str, list[float]]:
    """Wall, CPU and rescaled CPU time of each of ``SETUP_PROBES`` fresh
    set-up processes.

    Reference blocks in this process do not follow the speed of a process
    start and its imports, so each probe runs between two bare interpreters
    that only import numpy, and its rescaled time is its CPU time times
    ``NULL_NOMINAL_S`` over their mean CPU time.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    null = [sys.executable, "-c", "import numpy"]
    times = {"wall": [], "cpu": [], "scaled": []}
    before = timed_child(null)[1]
    for _ in range(SETUP_PROBES):
        wall, cpu = timed_child(probe)
        after = timed_child(null)[1]
        times["wall"].append(wall)
        times["cpu"].append(cpu)
        times["scaled"].append(cpu * NULL_NOMINAL_S * 2.0 / (before + after))
        before = after
    return times


def closed_loop(runner: Runner, workload: wl.Workload, work: Path, seconds: float,
                golden: GoldenTally):
    """Run passes until ``seconds`` are used; returns (passes, untraced, identical).

    With a tracer, each traced pass is followed by an untraced pass on
    inputs that no operation has seen (pass index ``UNTRACED_OFFSET + k``),
    so no cache warmed by one pass can speed up the other; every pass does
    the same work, so the two compare.  After the last pass, the first pass
    is run again untraced, and ``identical`` says whether its reports match
    the traced ones byte for byte; that re-run is not timed.  Reports are
    compared as each pass ends and then dropped, so memory does not grow
    with the number of passes.
    """
    passes, untraced, op_id, first_texts = [], [], 0, []
    tracer = runner.tracer
    start = time.perf_counter()
    # Start another pass only if a pass of average length still fits.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        k = len(passes)
        done = run_ops(runner, workload.make_pass(k, fresh_dir(work / f"p{k}")), op_id)
        op_id += len(done)
        plain = []
        if tracer:
            with tracer.removed():
                plain = run_ops(Runner(runner.p), workload.make_pass(
                    UNTRACED_OFFSET + k, fresh_dir(work / "untraced")))
            untraced.append(plain)
        if not k:
            first_texts = [r["text"] for _, r in done]
        for _, r in done:
            golden.add(r)
        for _, r in done + plain:
            r["text"] = None
        passes.append(done)
        shutil.rmtree(work / f"p{k}")
    identical = True
    if tracer:
        with tracer.removed():
            again = run_ops(Runner(runner.p), workload.make_pass(0, fresh_dir(work / "p0")))
        identical = first_texts == [r["text"] for _, r in again]
    return passes, untraced, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    program = load_program(root)
    if args.setup_probe:
        return setup_probe(args, program)

    setup_times = {} if args.record_golden or args.trace else measure_setup(args)
    work = STATE_DIR / "work" / args.workload
    t0 = time.perf_counter()
    workload = wl.make_workload(args.workload, args.seed)
    warm = run_ops(Runner(program), workload.warmup(fresh_dir(work / "warmup")))
    own_setup_s = time.perf_counter() - t0

    if args.record_golden:
        first = run_ops(Runner(program), workload.make_pass(0, fresh_dir(work / "p0")))
        results = [r for _, r in warm + first]
        bad = [r for r in results if not r["ok"] and not r["known"]]
        if bad:
            raise SystemExit(f"perfbench: not recording goldens, {len(bad)} operations failed")
        write_golden(args.workload, results)
        print(f"recorded {sum(r['ok'] for r in results)} reports to {golden_path(args.workload)}")
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(tuple(program.values()))
        unwrapped = tracer.unwrapped()
    golden = GoldenTally(load_golden(args.workload))
    for _, r in warm:
        golden.add(r)
    runner = Runner(program, tracer)
    passes, untraced, identical = closed_loop(runner, workload, work, args.seconds, golden)
    if tracer:
        tracer.uninstall()
    summary = summarize(workload, passes)
    # Over the timed passes only, so that it repeats exactly whatever the pass count.
    failed_frac = (summary["failed"] + summary["known_failures"]) / summary["attempted"]
    warm_failed = [f"{op.label} {op.kind}: {r['error']}" for op, r in warm if not r["ok"]]
    summary["failed"] += len(warm_failed)
    summary["attempted"] += len(warm)
    summary["errors"] += warm_failed
    correct = summary["failed"] == 0
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "setup_probe_s": setup_times, "own_setup_s": own_setup_s,
        "golden": {"compared": golden.compared, "byte_identical": golden.identical,
                   "max_abs_drift": golden.max_drift},
        "failed_frac": failed_frac,
        **summary,
    }
    if tracer:
        metrics, trace_checks = per_layer_metrics(tracer, workload, passes, untraced, failed_frac)
        trace_checks.update(reports_identical=identical, unwrapped=unwrapped)
        trace_checks["ok"] = trace_checks["ok"] and identical and not unwrapped
        record["trace_checks"] = trace_checks
        correct = correct and trace_checks["ok"]
        tracer.save(results / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        values = {
            "setup_s": statistics.median(setup_times["scaled"]),
            "report_s": kind_geomean(summary, "scaled"),
            "pass_s": statistics.median(summary["pass_scaled_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["unscaled"] = {
            clock: {"setup_s": statistics.median(setup_times[clock]),
                    "report_s": kind_geomean(summary, clock),
                    "pass_s": statistics.median(summary[f"pass_{clock}_s"])}
            for clock in ("wall", "cpu")}
        if values["report_s"] is None:
            correct = False
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    shutil.rmtree(work, ignore_errors=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print_diagnostics(record)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def kind_geomean(summary: dict, clock: str) -> float | None:
    """Geometric mean over kinds of the median over passes of the pass mean."""
    figures = [e[clock]["pass_mean_median_s"] for e in summary["kinds"].values()]
    return math.exp(statistics.fmean(map(math.log, figures))) if all(figures) else None


def per_layer_metrics(tracer: Tracer, workload: wl.Workload, passes, untraced,
                      failed_frac: float) -> tuple[dict, dict]:
    n = len(passes)
    traced = [r for ops in passes for _, r in ops]
    plain = [r for ops in untraced for _, r in ops]
    op_wall = sum(r["seconds"] for r in traced)
    # Self times add up to the root spans' durations by construction, so the
    # remainder is what the wrappers cost outside the root spans.
    unattributed = op_wall - sum(tracer.self_s)
    overhead = sum(r["scaled_s"] for r in traced) - sum(r["scaled_s"] for r in plain)

    values = {"failed_frac": failed_frac}
    untraced_summary = summarize(workload, untraced)
    for kind in REPORT_KINDS:
        entry = untraced_summary["kinds"].get(kind)
        figure = entry["scaled"]["pass_mean_median_s"] if entry else None
        values[f"{kind}_report_s"] = figure or 0.0
    values["del_steps_per_s"] = untraced_summary["del_steps_per_s"]["scaled"] or 0.0
    for name in _SPAN_CALLS:
        values[f"{name}.calls"] = tracer.stat(name)[0] / n
    for name in _SPAN_SELF:
        values[f"{name}.self_s"] = tracer.stat(name)[1] / n
    steps = tracer.counts["levi_civita.holonomy.steps"]
    values["levi_civita.holonomy.steps"] = steps / n
    values["levi_civita.holonomy.s_per_step"] = (
        tracer.stat("levi_civita.holonomy")[1] / steps if steps else 0.0)
    values["lie_group.GroupElement.built"] = tracer.counts["lie_group.GroupElement.built"] / n
    reps = tracer.stat("connection.local_rep")[0]
    values["connection.local_rep.repeats"] = tracer.counts["connection.local_rep.repeats"] / n
    values["connection.local_rep.repeat_share"] = (
        tracer.counts["connection.local_rep.repeats"] / reps if reps else 0.0)
    solves = tracer.stat("mechanical.del_step")[0] + tracer.stat("mechanical.mechanical_connection")[0]
    values["mechanical.d1_evals_per_solve"] = (
        tracer.counts["mechanical.d1_eval.in_solve"] / solves if solves else 0.0)
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        values[f"{layer}.total_self_s"] = layer_self.get(layer, 0.0) / n
    values["trace.overhead_s"] = overhead / n
    values["trace.overhead_share"] = overhead / sum(r["scaled_s"] for r in plain)
    values["trace.unattributed_s"] = unattributed / n
    values["trace.spans"] = tracer.next_span / n
    checks = {
        "unknown_layers": sorted(set(layer_self) - set(LAYERS)),
        "spans_dropped": max(0, tracer.next_span - SPAN_CAP),
    }
    checks["ok"] = not checks["unknown_layers"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, checks


def print_diagnostics(record: dict) -> None:
    m = record["machine"]
    print(f"# machine: {m['nproc']} cpus ({m['affinity']} usable), {m['cpu']}, "
          f"python {m['python']}, numpy {m['numpy']}, {m['blas']}")
    print(f"# workload {record['workload']} seed {record['seed']}: {record['passes']} passes, "
          f"{record['attempted']} operations, {record['failed']} failed, "
          f"{record['known_failures']} known failures, failed_frac {record['failed_frac']:.6f}")
    for kind, e in record["kinds"].items():
        if not e["n"]:
            print(f"# {kind}: no successful operation")
            continue
        name = "del_step_s" if kind == "del" else f"{kind}_report_s"
        for clock in CLOCKS:
            c = e[clock]
            tail_text = f", {c['tail'][0]} {c['tail'][1]:.6f} s" if "tail" in c else ""
            print(f"# {name} ({clock}): {c['pass_mean_median_s']:.6f} s (median over passes of "
                  f"the pass mean); per operation n {e['n']}, median {c['median_s']:.6f} s"
                  f"{tail_text}")
    for clock, rate in record["del_steps_per_s"].items():
        if rate:
            print(f"# del_steps_per_s ({clock}): {rate:.3f} 1/s")
    for clock, figures in record.get("unscaled", {}).items():
        print(f"# {clock}, not rescaled: {json.dumps(figures)}")
    g = record["golden"]
    print(f"# golden: {g['byte_identical']} of {g['compared']} byte-identical, "
          f"max_abs_drift {g['max_abs_drift']:.3g}")
    if "trace_checks" in record:
        print(f"# trace checks: {json.dumps(record['trace_checks'])}")
    for line in record["errors"]:
        print(f"# error: {line}")
    for name, metric in record["metrics"].items():
        if metric["value"]:
            print(f"# {name} = {metric['value']!r} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
