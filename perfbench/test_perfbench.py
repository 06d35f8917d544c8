"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def program():
    return run.load_program(ROOT)


def _inputs(name: str, seed: int, directory: Path) -> tuple[list[str], dict[str, bytes]]:
    ops = wl.make_workload(name, seed).make_pass(0, run.fresh_dir(directory))
    return [op.key for op in ops], {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    keys, files = _inputs(name, 5, Path("p0"))
    again_keys, again_files = _inputs(name, 5, Path("p0"))
    other_keys, _ = _inputs(name, 6, Path("p0"))
    assert keys == again_keys and files == again_files
    assert len(set(keys)) == len(keys)
    assert keys != other_keys


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_passes_draw_fresh_inputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = wl.make_workload(name, 1)
    first = {op.key for op in workload.make_pass(0, run.fresh_dir(Path("p0")))}
    second = {op.key for op in workload.make_pass(1, run.fresh_dir(Path("p1")))}
    assert not first & second


def test_corrupted_report_counts_as_failed(program, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = wl.make_workload("fiber-reports", 2)
    ops = [op for op in workload.make_pass(0, run.fresh_dir(Path("p0"))) if op.kind == "decompose"]
    cli = program["cli"]
    honest = cli._DISPATCH["decompose"]

    def corrupted(cfg):
        report = honest(cfg)
        report["reconstruction_residual"] = 1.0e-3
        return report

    monkeypatch.setitem(cli._DISPATCH, "decompose", corrupted)
    done = run.run_ops(run.Runner(program), ops[:2])
    summary = run.summarize(workload, [done])
    assert summary["failed"] == 2 and summary["attempted"] == 2
    assert all("reconstruction residual" in r["error"] for _, r in done)


def test_cut_locus_cones_are_known_failures(program, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = wl.make_workload("small-complexes", 3)
    ops = [op for op in workload.make_pass(0, run.fresh_dir(Path("p0")))
           if op.label in ("cone3", "cone4", "cone9")]
    summary = run.summarize(workload, [run.run_ops(run.Runner(program), ops)])
    assert summary["failed"] == 0
    assert summary["known_failures"] == 2  # the curvature reports of k = 3 and k = 9


@pytest.mark.parametrize("name", ["small-complexes", "fiber-reports"])
def test_traced_reports_match_untraced(name, program, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = wl.make_workload(name, 4)
    plain = run.run_ops(run.Runner(program), workload.make_pass(0, run.fresh_dir(Path("p0"))))
    originals = dict(program["cli"]._DISPATCH)
    tracer = Tracer()
    tracer.install(tuple(program.values()))
    try:
        assert tracer.unwrapped() == []
        traced = run.run_ops(run.Runner(program, tracer),
                             workload.make_pass(0, run.fresh_dir(Path("p0"))))
    finally:
        tracer.uninstall()
    assert program["cli"]._DISPATCH == originals
    assert [r["text"] for _, r in traced] == [r["text"] for _, r in plain]
    assert all(r["ok"] or r["known"] for _, r in traced)
    assert set(tracer.layer_self_s()) <= set(run.LAYERS)


def test_unwrapped_names_a_missed_binding(program, monkeypatch):
    tracer = Tracer()
    tracer.install(tuple(program.values()))
    try:
        original = program["limits"].estimate_order.__wrapped__
        monkeypatch.setattr(program["cli"], "stray", original, raising=False)
        monkeypatch.setitem(program["cli"]._DISPATCH, "stray", original)
        assert sorted(tracer.unwrapped()) == ["cli._DISPATCH['stray']", "cli.stray"]
    finally:
        monkeypatch.undo()
        tracer.uninstall()


def test_tracer_sees_calls_through_every_binding(program, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = wl.make_workload("fiber-reports", 0)
    tracer = Tracer()
    tracer.install(tuple(program.values()))
    try:
        run.run_ops(run.Runner(program, tracer), workload.warmup(run.fresh_dir(Path("w"))))
    finally:
        tracer.uninstall()
    # cli and limits bind eval_form and estimate_order with "from ... import".
    assert tracer.stat("connection.eval_form")[0] > 0
    assert tracer.stat("limits.estimate_order")[0] == 1
    assert tracer.stat("presets.resolve_connection")[0] == 3
    assert tracer.stat("connection.local_rep")[0] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_golden_drift():
    assert run.drift({"a": [1.0, 2.0]}, {"a": [1.0, 2.5]}) == 0.5
    assert run.drift({"a": None}, {"a": None}) == 0.0
    assert run.drift({"a": [1.0]}, {"a": [1.0, 2.0]}) == float("inf")


def test_traced_loop_follows_each_pass_with_fresh_untraced_inputs(program, tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = wl.make_workload("fiber-reports", 6)
    tracer = Tracer()
    tracer.install(tuple(program.values()))
    golden = run.GoldenTally({})
    try:
        passes, untraced, identical = run.closed_loop(
            run.Runner(program, tracer), workload, Path("work"), 0.0, golden)
    finally:
        tracer.uninstall()
    assert len(passes) == len(untraced) == 1 and identical
    assert not {r["key"] for _, r in passes[0]} & {r["key"] for _, r in untraced[0]}
    assert all(r["text"] is None for ops in passes + untraced for _, r in ops)
    metrics, checks = run.per_layer_metrics(tracer, workload, passes, untraced, 0.0)
    assert checks["ok"]
    assert metrics["order_report_s"]["value"] > 0 and metrics["curvature_report_s"]["value"] == 0
