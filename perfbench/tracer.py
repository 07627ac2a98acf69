"""Span tracer that wraps denseprf's public functions from outside the package.

``Tracer.install`` replaces every binding of each target in every loaded
``denseprf`` module (``cli`` imports names directly, so patching the defining
module alone would miss its calls) and ``uninstall`` restores them.  A target
missing from the package is listed in ``absent`` instead of failing the run.
Wrappers record only inside a root span opened with ``Tracer.span``, so the
benchmark's own checks never show up in the trace.  Spans stay in memory;
``summarize`` turns them into the per-layer metrics and ``write`` dumps them
once, at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "denseprf"
MASK_ID = 2  # third entry of the fixed special-token inventory

# (module, attribute path) of every traced public function.
TARGETS = (
    ("tokenizer", "tokenize"),
    ("composer", "compose"),
    ("composer", "first_round_sequence"),
    ("composer", "document_sequence"),
    ("encoder", "encode"),
    ("encoder", "grad"),
    ("encoder", "load_params"),
    ("encoder", "save_params"),
    ("index", "VectorIndex.build"),
    ("index", "VectorIndex.search"),
    ("index", "VectorIndex.save"),
    ("index", "VectorIndex.load"),
    ("pipeline", "first_round"),
    ("pipeline", "prf_retrieve"),
    ("pipeline", "results_to_run"),
    ("pipeline", "write_run"),
    ("pipeline", "read_run"),
    ("pipeline", "RunList.by_query"),
    ("trainer", "prepare_training_queries"),
    ("trainer", "sample_negatives"),
    ("trainer", "optimizer_step"),
    ("evaluator", "mrr_at_k"),
    ("evaluator", "ndcg_at_k"),
    ("evaluator", "recall_at_k"),
    ("evaluator", "Qrels.positives"),
    ("evaluator", "Qrels.load"),
)

# Per-call facts taken from (args, kwargs, result); they must stay cheap.
PROBES = {
    "tokenizer.tokenize": lambda a, kw, r: (len(r.ids), a[0]),
    "composer.compose": lambda a, kw, r: (len(r.ids), r.ids.count(MASK_ID)),
    "encoder.encode": lambda a, kw, r: len(a[1].ids),
    "encoder.grad": lambda a, kw, r: tuple(len(ex.tokens.ids) for ex in a[1]),
    "index.VectorIndex.search": lambda a, kw, r: (len(a[0]), len(r)),
    "pipeline.results_to_run": lambda a, kw, r: len(r),
    "pipeline.read_run": lambda a, kw, r: len(r),
    "pipeline.RunList.by_query": lambda a, kw, r: sum(map(len, r.values())),
    "trainer.sample_negatives": lambda a, kw, r: kw.get("pool_depth", a[3] if len(a) > 3 else 0),
    "evaluator.Qrels.positives": lambda a, kw, r: (len(a[0].judgments), len(r)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, probe]
        self.absent: list[str] = []
        self.probe_errors: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(owner, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif outer:
                self._patch(owner, attr, self._wrap(raw, name))
            else:
                wrapped = self._wrap(raw, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    span[4] = probe(args, kwargs, result)
                except Exception:  # a changed signature loses the facts, not the run
                    self.probe_errors.add(name)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Root (or nested) span opened by the benchmark itself."""
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    # -- per-layer metrics -----------------------------------------------------

    def summarize(self, arch: dict | None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded; arch gives computed FLOPs."""
        spans = self.spans
        by_name: dict[str, list[int]] = defaultdict(list)
        inner = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            by_name[name].append(i)
            if parent >= 0:
                inner[parent] += end - start

        def dur(i):
            return spans[i][2] - spans[i][1]

        def calls(*names):
            return sum(len(by_name[n]) for n in names)

        def busy(*names):
            return sum(dur(i) for n in names for i in by_name[n])

        def probes(name):
            return [spans[i][4] for i in by_name[name] if spans[i][4] is not None]

        def under(name, ancestor):
            count = 0
            for i in by_name[name]:
                p = spans[i][3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                count += p >= 0
            return count

        def flops(t):  # forward pass of one sequence of t tokens
            d, layers = arch["dim"], arch["layers"]
            return layers * (24 * t * d * d + 4 * t * t * d) + 2 * d * d

        m: dict[str, tuple[float, str]] = {}
        toks = probes("tokenizer.tokenize")
        m["tokenizer.calls"] = (calls("tokenizer.tokenize"), "count")
        m["tokenizer.busy_s"] = (busy("tokenizer.tokenize"), "s")
        m["tokenizer.tokens"] = (sum(n for n, _ in toks), "count")
        m["tokenizer.distinct_text_share"] = (_ratio(len({t for _, t in toks}), len(toks)), "ratio")

        comp = ("composer.compose", "composer.first_round_sequence", "composer.document_sequence")
        composed = probes("composer.compose")
        m["composer.calls"] = (calls(*comp), "count")
        m["composer.busy_s"] = (busy(*comp), "s")
        m["composer.mask_token_share"] = (
            _ratio(sum(k for _, k in composed), sum(n for n, _ in composed)), "ratio")

        enc = probes("encoder.encode")
        enc_s = busy("encoder.encode")
        m["encoder.encode_calls"] = (calls("encoder.encode"), "count")
        m["encoder.encode_tokens"] = (sum(enc), "count")
        m["encoder.encode_busy_s"] = (enc_s, "s")
        m["encoder.encode_gflop_per_s"] = (
            _ratio(sum(map(flops, enc)), enc_s * 1e9) if arch else 0.0, "GFLOP/s")
        m["encoder.pooled_row_share"] = (_ratio(len(enc), sum(enc)), "ratio")
        lengths = [t for batch in probes("encoder.grad") for t in batch]
        grad_s = busy("encoder.grad")
        m["encoder.grad_calls"] = (calls("encoder.grad"), "count")
        m["encoder.grad_examples"] = (len(lengths), "count")
        m["encoder.grad_tokens"] = (sum(lengths), "count")
        m["encoder.grad_busy_s"] = (grad_s, "s")
        # Backward costs about twice the forward matmuls.
        m["encoder.grad_gflop_per_s"] = (
            _ratio(3 * sum(map(flops, lengths)), grad_s * 1e9) if arch else 0.0, "GFLOP/s")
        m["encoder.params_io_s"] = (busy("encoder.load_params", "encoder.save_params"), "s")

        hits = probes("index.VectorIndex.search")
        m["index.search_calls"] = (calls("index.VectorIndex.search"), "count")
        m["index.rows_scored"] = (sum(n for n, _ in hits), "count")
        m["index.search_us_per_call"] = (
            _ratio(busy("index.VectorIndex.search") * 1e6, calls("index.VectorIndex.search")), "us")
        m["index.returned_row_share"] = (
            _ratio(sum(k for _, k in hits), sum(n for n, _ in hits)), "ratio")
        m["index.build_self_s"] = (
            sum(dur(i) - inner[i] for i in by_name["index.VectorIndex.build"]), "s")
        m["index.save_s"] = (busy("index.VectorIndex.save"), "s")
        m["index.load_s"] = (busy("index.VectorIndex.load"), "s")

        prf = [dur(i) * 1e3 for i in by_name["pipeline.prf_retrieve"]]
        run_io = ("pipeline.results_to_run", "pipeline.write_run",
                  "pipeline.read_run", "pipeline.RunList.by_query")
        m["pipeline.round1_calls"] = (calls("pipeline.first_round"), "count")
        m["pipeline.prf_calls"] = (len(prf), "count")
        m["pipeline.prf_query_p50_ms"] = (_percentile(prf, 50), "ms")
        m["pipeline.prf_query_p99_ms"] = (_percentile(prf, 99), "ms")
        m["pipeline.encodes_per_prf_query"] = (
            _ratio(under("encoder.encode", "pipeline.prf_retrieve"), len(prf)), "count")
        m["pipeline.searches_per_prf_query"] = (
            _ratio(under("index.VectorIndex.search", "pipeline.prf_retrieve"), len(prf)), "count")
        m["pipeline.run_rows"] = (
            sum(probes("pipeline.results_to_run")) + sum(probes("pipeline.read_run")), "count")
        m["pipeline.run_io_busy_s"] = (busy(*run_io), "s")

        copied = sum(
            spans[i][4] or 0 for i in by_name["pipeline.RunList.by_query"]
            if spans[i][3] >= 0 and spans[spans[i][3]][0] == "trainer.sample_negatives"
        )
        m["trainer.prepare_busy_s"] = (busy("trainer.prepare_training_queries"), "s")
        m["trainer.sample_negatives_calls"] = (calls("trainer.sample_negatives"), "count")
        m["trainer.sample_negatives_us_per_call"] = (
            _ratio(busy("trainer.sample_negatives") * 1e6, calls("trainer.sample_negatives")), "us")
        m["trainer.pool_rows_copied"] = (copied, "count")
        m["trainer.pool_row_use_share"] = (
            _ratio(sum(probes("trainer.sample_negatives")), copied), "ratio")
        m["trainer.optimizer_steps"] = (calls("trainer.optimizer_step"), "count")
        m["trainer.optimizer_busy_s"] = (busy("trainer.optimizer_step"), "s")

        metric_fns = ("evaluator.mrr_at_k", "evaluator.ndcg_at_k", "evaluator.recall_at_k")
        pos = probes("evaluator.Qrels.positives")
        scanned = sum(n for n, _ in pos)
        m["evaluator.metric_calls"] = (calls(*metric_fns), "count")
        m["evaluator.metric_busy_s"] = (busy(*metric_fns), "s")
        m["evaluator.positives_calls"] = (calls("evaluator.Qrels.positives"), "count")
        m["evaluator.judgments_scanned"] = (scanned, "count")
        m["evaluator.judgment_hit_share"] = (_ratio(sum(k for _, k in pos), scanned), "ratio")
        m["evaluator.qrels_load_s"] = (busy("evaluator.Qrels.load"), "s")

        for name, indices in by_name.items():
            if name.startswith("cli."):
                key = "cli." + name[4:].replace("-", "_") + "_self_s"
                m[key] = (sum(dur(i) - inner[i] for i in indices), "s")
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
