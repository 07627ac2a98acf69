"""Measurement, output checks and records for one benchmark run.

Imported by ``run.py`` once the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import time
from pathlib import Path

import numpy

from denseprf import cli
from denseprf.index import VectorIndex
from denseprf.pipeline import read_run

import workspace as wsp
from tracer import Tracer

SETUP_REPEATS = (3, 15)  # at least, at most; stop once SETUP_SECONDS are spent
SETUP_SECONDS = 1.0
MIN_SAMPLES = 3  # per step, before short steps get the remaining time

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "index_build_docs_per_s": "docs/s",
    "train_examples_per_s": "examples/s",
    "search_qps": "queries/s",
    "prf_search_qps": "queries/s",
    "eval_queries_per_s": "queries/s",
    "ok_op_share": "ratio",
    "peak_rss_mb": "MB",
}


def measure(wl: wsp.Workload, seed: int, seconds: float, trace: bool,
            work: Path, out: Path, src: Path) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    ws = work / "ws"
    setups, generate_s, write_s, setup_digests = [], [], [], []
    while len(setups) < SETUP_REPEATS[1] and (
        len(setups) < SETUP_REPEATS[0] or sum(setups) < SETUP_SECONDS
    ):
        shutil.rmtree(ws, ignore_errors=True)  # a fresh directory, as for a new user
        gc.collect()
        t0 = time.perf_counter()
        task, gen, write = wsp.set_up(wl, seed, ws)
        setups.append(time.perf_counter() - t0)
        generate_s.append(gen)
        write_s.append(write)
        setup_digests.append({p.name: wsp.file_digest(p) for p in sorted(ws.iterdir())})

    bench = Bench(task, ws)
    bench.check(all(d == setup_digests[0] for d in setup_digests), "set-up not reproducible")
    untraced, traced, tracers = [], [], []
    if trace:
        untraced, traced, tracers = _traced_passes(bench, seconds)
    else:
        _timed_steps(bench, seconds)

    source_digest, source_lines = wsp.tree_digest(src / "denseprf")
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": _provenance(src.parent, source_digest, source_lines),
        "task": vars(task),
        "setup_s": _spread(setups),
        "steps": {s: _spread(v) for s, v in bench.samples.items() if v},
        "digests": {name: bench.expected.get(name) for name in wsp.OUTPUTS.values()},
        "index_checksum": f"{bench.expected.get('checksum', 0):016x}",
        "quality": {
            "round1_mrr10": bench.mrr.get(bench.expected.get("base.run"), 0.0),
            "prf_mrr10": bench.mrr.get(bench.expected.get("prf.run"), 0.0),
        },
        "absent": tracers[-1].absent if tracers else [],
        "probe_errors": sorted(tracers[-1].probe_errors) if tracers else [],
    }
    bench.check(_matches_earlier_runs(record, out / "records.jsonl"),
                "artifact digests differ from an earlier run")

    if trace:
        layers = _layer_metrics(bench, tracers, _params_header(ws / "base.enc"))
        layers["synth.generate_s"] = (statistics.median(generate_s), "s")
        layers["synth.workspace_write_s"] = (statistics.median(write_s), "s")
        overhead = statistics.median(traced) / statistics.median(untraced) - 1 if traced else 0.0
        layers["trace.overhead_share"] = (overhead, "ratio")
        for name, value in record["quality"].items():
            layers[f"quality.{name}"] = (value, "score")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        if tracers:
            tracers[-1].write(out / f"spans-{wl.name}-seed{seed}.jsonl")
    else:
        metrics = _end_to_end(bench, task, statistics.median(setups))

    record.update(metrics=metrics, attempted=bench.ops, failures=bench.failures)
    with open(out / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


class Bench:
    """Runs CLI steps in-process, times them and checks what they wrote."""

    def __init__(self, task: wsp.Task, ws: Path):
        self.task = task
        self.ws = ws
        self.relevant = wsp.read_qrels(ws / "eval_qrels.txt")
        self.samples: dict[str, list[float]] = {s: [] for s in wsp.STEPS}
        self.expected: dict[str, object] = {}  # first digest of each artifact
        self.mrr: dict[str, float] = {}  # run-file digest -> brute-force MRR@10
        self.ops = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def check(self, ok: bool, failure: str) -> bool:
        self.ops += 1
        if not ok:
            self.failures.append(failure)
        return ok

    def run_step(self, step: str) -> float | None:
        """Run one CLI step and its checks; the wall time, or None on failure.

        Only untraced wall times are kept as samples.
        """
        argv = wsp.step_argv(step, self.ws)
        if step in wsp.OUTPUTS:
            (self.ws / wsp.OUTPUTS[step]).unlink(missing_ok=True)
        stdout = io.StringIO()
        gc.collect()
        span = self.tracer.span(f"cli.{step}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
        if not self.check(code == 0, f"{step} exited {code}"):
            return None
        failed = len(self.failures)
        self._check_outputs(step, stdout.getvalue())
        if len(self.failures) > failed:
            return None
        if self.tracer is None:
            self.samples[step].append(wall)
        return wall

    def _check_outputs(self, step: str, stdout: str) -> None:
        if step == "encode-corpus":
            checksum = wsp.printed_checksum(stdout)
            if self.check(checksum is not None, "encode-corpus printed no checksum"):
                self._same("checksum", checksum)
            self._same_file("docs.idx")
        elif step == "train":
            self._same_file("prf.enc")
        elif step in ("search", "search-prf"):
            self._run_file(wsp.OUTPUTS[step])
            if step == "search-prf":
                reloaded = VectorIndex.load(self.ws / "docs.idx").checksum
                self.check(reloaded == self.expected.get("checksum"),
                           "index checksum changed after search-prf")
        else:
            self._eval_matches(stdout, "prf.run" if step == "eval" else "base.run")

    def _same(self, key: str, value) -> bool:
        return self.check(self.expected.setdefault(key, value) == value,
                          f"{key} changed between runs")

    def _same_file(self, name: str) -> str:
        digest = wsp.file_digest(self.ws / name)
        self._same(name, digest)
        return digest

    def _run_file(self, name: str) -> None:
        try:
            rows = len(read_run(self.ws / name))
        except ValueError as exc:
            self.check(False, f"read_run {name}: {exc}")
            return
        want = self.task.eval_queries * self.task.topk
        if self.check(rows == want, f"{name} has {rows} rows, want {want}"):
            self._same_file(name)

    def _eval_matches(self, stdout: str, run: str) -> None:
        digest = self._same_file(run)
        if digest not in self.mrr:
            self.mrr[digest] = wsp.brute_force_mrr(self.ws / run, self.relevant)
        want, got = self.mrr[digest], wsp.printed_mrr(stdout)
        self.check(got is not None and abs(got - want) <= 5e-5 + 1e-12,
                   f"eval {run}: MRR@10 {got} != brute force {want:.6f}")


def _full_pass(bench: Bench) -> float | None:
    total = 0.0
    for step in wsp.STEPS:
        wall = bench.run_step(step)
        if wall is None:
            return None
        total += wall
    return total


def _timed_steps(bench: Bench, seconds: float) -> None:
    """One full pass, then repeat steps that still fit in the time left.

    Steps with fewer than MIN_SAMPLES samples go first, least-sampled first,
    so whole passes repeat while they fit.  After that the step with the least
    total time goes next, which gives short steps many samples.
    """
    start = time.perf_counter()
    if _full_pass(bench) is None:
        return
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [s for s, v in bench.samples.items() if statistics.median(v) <= left]
        if not fits:
            return
        step = min(fits, key=lambda s: (min(len(bench.samples[s]), MIN_SAMPLES),
                                        sum(bench.samples[s])))
        if bench.run_step(step) is None:
            return


def _traced_passes(bench: Bench, seconds: float) -> tuple[list, list, list]:
    """Alternate untraced and traced full passes while a pair still fits.

    Returns the untraced and traced pass times and the tracer of each traced pass.
    """
    start = time.perf_counter()
    untraced, traced, tracers = [], [], []
    while True:
        pair = time.perf_counter()
        total = _full_pass(bench)
        if total is None:
            break
        untraced.append(total)
        tracer = Tracer()
        tracer.install()
        bench.tracer = tracer
        try:
            total = _full_pass(bench)
        finally:
            bench.tracer = None
            tracer.uninstall()
        tracers.append(tracer)
        if total is None:
            break
        traced.append(total)
        pair = time.perf_counter() - pair
        if time.perf_counter() - start + pair > seconds:
            break
    return untraced, traced, tracers


def _layer_metrics(bench: Bench, tracers: list[Tracer], arch) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each per-layer metric, after the call-shape check."""
    if not tracers:
        return {}
    passes = [t.summarize(arch) for t in tracers]
    if "pipeline.prf_retrieve" not in tracers[-1].absent:
        for p in passes:
            shape = (p["pipeline.encodes_per_prf_query"][0],
                     p["pipeline.searches_per_prf_query"][0])
            bench.check(shape == (2, 2), f"feedback query made {shape} encodes/searches")
    return {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_, unit) in passes[-1].items()
    }


def _end_to_end(bench: Bench, task: wsp.Task, setup_s: float) -> dict:
    med = {s: statistics.median(v) if v else 0.0 for s, v in bench.samples.items()}
    values = {
        "setup_s": setup_s,
        "pipeline_s": sum(med.values()),
        "index_build_docs_per_s": _ratio(task.docs, med["encode-corpus"]),
        "train_examples_per_s": _ratio(task.trainable_queries * task.epochs, med["train"]),
        "search_qps": _ratio(task.eval_queries, med["search"]),
        "prf_search_qps": _ratio(task.eval_queries, med["search-prf"]),
        "eval_queries_per_s": _ratio(task.eval_queries, med["eval"]),
        "ok_op_share": _ratio(bench.ops - len(bench.failures), bench.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _params_header(path: Path) -> dict | None:
    """Architecture from a PRFENC1 params header, for computed FLOPs."""
    data = path.read_bytes()[:27]
    if len(data) < 27 or data[:7] != b"PRFENC1":
        return None
    dim, layers, heads, _, _ = struct.unpack_from("<5i", data, 7)
    return {"dim": dim, "layers": layers, "heads": heads}


def _provenance(root: Path, source_digest: str, source_lines: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "prf_threads": os.environ.get("PRF_THREADS"),
        "git_commit": _git_commit(root),
        "source_digest": source_digest,
        "src_lines": source_lines,
    }


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _matches_earlier_runs(record: dict, records: Path) -> bool:
    """Artifacts must be byte-identical to every earlier run of this source and seed."""
    key = (record["workload"], record["seed"], record["provenance"]["source_digest"])
    try:
        with open(records, encoding="utf-8") as fh:
            earlier = [json.loads(line) for line in fh if line.strip()]
    except OSError:
        return True
    return all(
        r["digests"] == record["digests"]
        for r in earlier
        if not r["failures"]
        and (r["workload"], r["seed"], r["provenance"]["source_digest"]) == key
    )
