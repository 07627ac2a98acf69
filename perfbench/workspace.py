"""Workloads, their seeded set-up, and the independent output checks.

A workload is a synthetic topic-cluster task written to disk as the files a
``denseprf`` user would have: corpus and query TSVs, qrels, a vocab, clustered
base encoder params and a JSON workspace config.  Everything is derived from
the workload seed exactly as ``run_experiment`` derives it, so the CLI path
reproduces the library experiment bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from denseprf.encoder import EncoderConfig, init_params, save_params
from denseprf.synth import SynthConfig, cluster_token_embeddings, generate
from denseprf.tokenizer import build_vocab
from denseprf.trainer import derive_seed

# Architecture and initialization of the README experiment.
DIM, LAYERS, HEADS, MAX_LEN, INIT_SCALE = 48, 2, 4, 128, 0.05
PRF_DEPTH = 3
MRR_K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    template: str
    topk: int
    epochs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-ance", {}, "ance", topk=10, epochs=10),
        Workload("synth-tct", {}, "tct", topk=10, epochs=10),
        Workload(
            "corpus-30k",
            {"topics": 300, "train_queries": 1000, "eval_queries": 1000},
            "ance", topk=100, epochs=1,
        ),
    )
}

# Timed CLI steps in pipeline order: name -> argv after "--config ws.json".
STEPS = {
    "encode-corpus": ["encode-corpus"],
    "search": ["search", "--queries", "eval_queries.tsv", "--run", "base.run"],
    "train": ["train", "--queries", "train_queries.tsv", "--qrels", "train_qrels.txt"],
    "search-prf": ["search-prf", "--queries", "eval_queries.tsv", "--run", "prf.run"],
    "eval": ["eval", "--run", "prf.run", "--qrels", "eval_qrels.txt",
             "--baseline", "base.run"],
    "eval-round1": ["eval", "--run", "base.run", "--qrels", "eval_qrels.txt"],
}

# The file each step writes.  It is removed before the step runs, so every
# sample writes a new file: rewriting an existing one costs a flush to disk
# on some filesystems (ext4 auto_da_alloc) and would make repeats slower.
OUTPUTS = {
    "encode-corpus": "docs.idx",
    "search": "base.run",
    "train": "prf.enc",
    "search-prf": "prf.run",
}


@dataclass(frozen=True)
class Task:
    """What the checks and the throughput metrics need to know."""

    docs: int
    eval_queries: int
    trainable_queries: int
    topk: int
    epochs: int


def set_up(wl: Workload, seed: int, ws: Path) -> tuple[Task, float, float]:
    """Write the workspace; returns (task, generate seconds, write seconds)."""
    t0 = time.perf_counter()
    synth_cfg = SynthConfig(**wl.synth, seed=derive_seed(seed, 10))
    task = generate(synth_cfg)
    t1 = time.perf_counter()
    vocab = build_vocab(task.corpus.values())
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab), dim=DIM, layers=LAYERS, heads=HEADS, max_len=MAX_LEN
    )
    base = init_params(enc_cfg, seed=derive_seed(seed, 1), scale=INIT_SCALE)
    base = cluster_token_embeddings(base, vocab, task, synth_cfg)
    ws.mkdir(parents=True, exist_ok=True)
    vocab.save(ws / "vocab.txt")
    save_params(base, ws / "base.enc")
    _write_tsv(ws / "corpus.tsv", task.corpus.items())
    _write_tsv(ws / "train_queries.tsv", task.train_queries)
    _write_tsv(ws / "eval_queries.tsv", task.eval_queries)
    task.train_qrels.save(ws / "train_qrels.txt")
    task.eval_qrels.save(ws / "eval_qrels.txt")
    config = {
        "vocab": str(ws / "vocab.txt"),
        "corpus": str(ws / "corpus.tsv"),
        "index": str(ws / "docs.idx"),
        "params": str(ws / "base.enc"),
        "prf_params": str(ws / "prf.enc"),
        "template": wl.template,
        "prf_depth": PRF_DEPTH,
        "topk": wl.topk,
        "max_len": MAX_LEN,
        "seed": seed,
        "train": {"seed": derive_seed(seed, 11), "epochs": wl.epochs},
    }
    (ws / "workspace.json").write_text(json.dumps(config, indent=1) + "\n")
    t2 = time.perf_counter()
    trainable = len({q for (q, _), g in task.train_qrels.judgments.items() if g >= 1})
    info = Task(len(task.corpus), len(task.eval_queries), trainable, wl.topk, wl.epochs)
    return info, t1 - t0, t2 - t1


def step_argv(step: str, ws: Path) -> list[str]:
    head, *rest = STEPS[step]
    flags = [str(ws / a) if a.endswith((".tsv", ".txt", ".run")) else a for a in rest]
    return [head, "--config", str(ws / "workspace.json"), *flags]


def _write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, text in rows:
            fh.write(f"{key}\t{text}\n")


def file_digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def tree_digest(root: Path) -> tuple[str, int]:
    """Digest and line count of every .py file under root, in path order."""
    h = hashlib.blake2b(digest_size=16)
    lines = 0
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


# -- brute-force oracle over the files themselves ------------------------------


def read_qrels(path: Path) -> dict[str, set[str]]:
    """Query id -> doc ids judged relevant (grade >= 1)."""
    relevant: dict[str, set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        cols = line.split()
        if cols and int(cols[3]) >= 1:
            relevant.setdefault(cols[0], set()).add(cols[2])
    return relevant


def brute_force_mrr(run_path: Path, relevant: dict[str, set[str]], k: int = MRR_K) -> float:
    """Mean reciprocal rank over run queries that have a relevant document."""
    best: dict[str, float] = {}
    for line in run_path.read_text(encoding="utf-8").splitlines():
        qid, _, doc, rank, _, _ = line.split()
        if qid not in relevant:
            continue
        rr = 1.0 / int(rank) if int(rank) <= k and doc in relevant[qid] else 0.0
        best[qid] = max(best.get(qid, 0.0), rr)
    return sum(best.values()) / len(best) if best else 0.0


def printed_mrr(eval_stdout: str) -> float | None:
    """The MRR@10 mean from an ``eval`` table, or None when absent."""
    for line in eval_stdout.splitlines():
        cols = line.split()
        if len(cols) >= 3 and cols[0] == "MRR" and cols[1] == str(MRR_K):
            return float(cols[2])
    return None


def printed_checksum(encode_stdout: str) -> int | None:
    """The index checksum printed by ``encode-corpus``, or None when absent."""
    found = re.search(r"checksum ([0-9a-f]{16})\b", encode_stdout)
    return int(found.group(1), 16) if found else None
