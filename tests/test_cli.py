import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import denseprf
from denseprf.cli import main
from denseprf.encoder import EncoderConfig, init_params, load_params, save_params
from denseprf.index import VectorIndex
from denseprf.pipeline import read_run, write_run
from denseprf.synth import (
    ExperimentConfig,
    SynthConfig,
    cluster_token_embeddings,
    generate,
    prepare_artifacts,
    run_experiment,
)
from denseprf.tokenizer import build_vocab
from denseprf.trainer import TrainConfig, derive_seed

CORPUS = {
    "d1": "Quantum Flux capacitors hum softly",
    "d2": "quantum flux readings drift overnight",
    "d3": "quantum tunneling in the flux chamber",
    "d4": "the quantum flux hums overnight",
    "d5": "Garden gnomes Guard the quiet lawn",
    "d6": "the gnomes hum garden tunes",
    "d7": "Overnight drift ruins the Garden",
    "d8": "gnome statues in the garden lawn",
}

QUERIES = {
    "t1": "quantum flux",
    "t2": "quantum drift",
    "t3": "garden gnomes",
    "t4": "garden lawn",
}

QRELS = [
    ("t1", "d1", 2), ("t1", "d2", 2),
    ("t2", "d2", 2), ("t2", "d4", 1),
    ("t3", "d5", 2), ("t3", "d6", 2),
    ("t4", "d8", 2), ("t4", "d5", 1),
]


def write_inputs(path, corpus=CORPUS):
    (path / "corpus.tsv").write_text("".join(f"{d}\t{t}\n" for d, t in corpus.items()))
    (path / "queries.tsv").write_text("".join(f"{q}\t{t}\n" for q, t in QUERIES.items()))
    (path / "qrels.txt").write_text("".join(f"{q} 0 {d} {g}\n" for q, d, g in QRELS))


@pytest.fixture()
def ws(tmp_path):
    """Workspace directory with corpus/queries/qrels files and path helpers."""
    write_inputs(tmp_path)
    return tmp_path


def p(ws, name):
    return str(ws / name)


def build_base(ws):
    assert main([
        "build-vocab", "--corpus", p(ws, "corpus.tsv"), "--vocab", p(ws, "vocab.txt"),
    ]) == 0
    assert main([
        "init-params", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--dim", "16", "--layers", "1", "--heads", "2", "--max-len", "64",
    ]) == 0
    assert main([
        "encode-corpus", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--corpus", p(ws, "corpus.tsv"), "--index", p(ws, "docs.idx"),
    ]) == 0


def test_full_workflow(ws, capsys):
    build_base(ws)
    out = capsys.readouterr().out
    assert "wrote" in out
    assert "indexed 8 docs, checksum " in out

    index = VectorIndex.load(ws / "docs.idx")
    assert f"checksum {index.checksum:016x}" in out
    params = load_params(ws / "base.enc")
    assert params.config.dim == 16
    assert params.config.max_len == 64

    assert main([
        "search", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--queries", p(ws, "queries.tsv"),
        "--run", p(ws, "base.run"), "--topk", "8",
    ]) == 0
    run = read_run(ws / "base.run")
    assert set(run.by_query()) == set(QUERIES)
    assert run.tag == "base"

    assert main([
        "train", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--corpus", p(ws, "corpus.tsv"),
        "--queries", p(ws, "queries.tsv"), "--qrels", p(ws, "qrels.txt"),
        "--prf-params", p(ws, "prf.enc"), "--prf-depth", "2",
        "--epochs", "1", "--batch-size", "4", "--lr", "1e-4",
        "--negatives", "3", "--pool-depth", "8", "--log", p(ws, "log.csv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "wrote trained params" in out
    assert "1 steps, first loss" in out
    log_lines = (ws / "log.csv").read_text().splitlines()
    assert log_lines[0] == "step,loss,lr"
    assert len(log_lines) == 2

    assert main([
        "search-prf", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--prf-params", p(ws, "prf.enc"), "--index", p(ws, "docs.idx"),
        "--corpus", p(ws, "corpus.tsv"), "--queries", p(ws, "queries.tsv"),
        "--run", p(ws, "prf.run"), "--topk", "8", "--prf-depth", "2",
    ]) == 0
    prf_run = read_run(ws / "prf.run")
    assert prf_run.tag == "prf2"
    capsys.readouterr()

    assert main([
        "eval", "--run", p(ws, "prf.run"), "--qrels", p(ws, "qrels.txt"),
        "--recall-k", "8",
    ]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["metric", "cutoff", "mean", "sig"]
    assert table[1].startswith("MRR")
    assert table[2].startswith("nDCG")
    assert table[3].startswith("Recall")


def test_workflow_is_byte_deterministic(ws):
    build_base(ws)
    train_args = [
        "train", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--corpus", p(ws, "corpus.tsv"),
        "--queries", p(ws, "queries.tsv"), "--qrels", p(ws, "qrels.txt"),
        "--prf-depth", "2", "--epochs", "1", "--batch-size", "4",
        "--lr", "1e-4", "--negatives", "3", "--pool-depth", "8",
    ]
    assert main(train_args + ["--prf-params", p(ws, "prf_a.enc")]) == 0
    assert main(train_args + ["--prf-params", p(ws, "prf_b.enc")]) == 0
    assert (ws / "prf_a.enc").read_bytes() == (ws / "prf_b.enc").read_bytes()

    assert main([
        "encode-corpus", "--vocab", p(ws, "vocab.txt"), "--params",
        p(ws, "base.enc"), "--corpus", p(ws, "corpus.tsv"),
        "--index", p(ws, "docs2.idx"),
    ]) == 0
    assert (ws / "docs.idx").read_bytes() == (ws / "docs2.idx").read_bytes()

    search_args = [
        "search-prf", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--prf-params", p(ws, "prf_a.enc"), "--index", p(ws, "docs.idx"),
        "--corpus", p(ws, "corpus.tsv"), "--queries", p(ws, "queries.tsv"),
        "--topk", "8", "--prf-depth", "2",
    ]
    assert main(search_args + ["--run", p(ws, "run_a.txt")]) == 0
    assert main(search_args + ["--run", p(ws, "run_b.txt")]) == 0
    assert (ws / "run_a.txt").read_bytes() == (ws / "run_b.txt").read_bytes()


def test_case_policy_moves_only_prf_runs(ws):
    build_base(ws)
    base_args = [
        "search", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--queries", p(ws, "queries.tsv"),
        "--topk", "8",
    ]
    assert main(base_args + ["--run", p(ws, "r1_pres.run"), "--case", "preserve"]) == 0
    assert main(base_args + ["--run", p(ws, "r1_lower.run"), "--case", "lower"]) == 0
    # all-lowercase queries: identical first rounds under both policies
    assert (ws / "r1_pres.run").read_bytes() == (ws / "r1_lower.run").read_bytes()

    prf_args = [
        "search-prf", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--prf-params", p(ws, "base.enc"), "--index", p(ws, "docs.idx"),
        "--corpus", p(ws, "corpus.tsv"), "--queries", p(ws, "queries.tsv"),
        "--topk", "8", "--prf-depth", "2",
    ]
    assert main(prf_args + ["--run", p(ws, "prf_pres.run"), "--case", "preserve"]) == 0
    assert main(prf_args + ["--run", p(ws, "prf_lower.run"), "--case", "lower"]) == 0
    # mixed-case feedback text: composition diverges, so do the runs
    assert (ws / "prf_pres.run").read_bytes() != (ws / "prf_lower.run").read_bytes()


def test_config_file_with_flag_overrides(ws):
    build_base(ws)
    config = {
        "vocab": p(ws, "vocab.txt"),
        "params": p(ws, "base.enc"),
        "index": p(ws, "docs.idx"),
        "queries": p(ws, "queries.tsv"),
        "run": p(ws, "from_config.run"),
        "topk": 3,
        "prf_depth": 1,
    }
    cfg_path = ws / "ws.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["search", "--config", str(cfg_path)]) == 0
    run = read_run(ws / "from_config.run")
    assert max(h.rank for hits in run.by_query().values() for h in hits) == 3

    assert main([
        "search", "--config", str(cfg_path), "--topk", "2",
        "--run", p(ws, "override.run"),
    ]) == 0
    run = read_run(ws / "override.run")
    assert max(h.rank for hits in run.by_query().values() for h in hits) == 2


def test_missing_file_exits_2(ws, capsys):
    code = main([
        "search", "--vocab", p(ws, "nope.txt"), "--params", p(ws, "nope.enc"),
        "--index", p(ws, "nope.idx"), "--queries", p(ws, "queries.tsv"),
        "--run", p(ws, "out.run"),
    ])
    assert code == 2
    assert "error: no such file:" in capsys.readouterr().err


def test_missing_required_setting_exits_2(ws, capsys):
    code = main(["search", "--vocab", p(ws, "vocab.txt")])
    assert code == 2
    assert "missing required setting: params" in capsys.readouterr().err


def test_unknown_config_key_exits_2(ws, capsys):
    cfg_path = ws / "bad.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "unknown config key: bogus" in capsys.readouterr().err


def test_invalid_json_config_exits_2(ws, capsys):
    cfg_path = ws / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_template_in_config_exits_2(ws, capsys):
    cfg_path = ws / "bad.json"
    for name in ("roberta", "dbert"):
        cfg_path.write_text(json.dumps({"template": name}))
        assert main(["eval", "--config", str(cfg_path)]) == 2
        assert f"unknown template: {name}" in capsys.readouterr().err


def test_dbert_template_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search-prf", "--template", "dbert"])
    assert exc.value.code == 2
    assert "invalid choice: 'dbert'" in capsys.readouterr().err


def test_depth_exceeding_topk_exits_2(ws, capsys):
    build_base(ws)
    cfg_path = ws / "bad.json"
    cfg_path.write_text(json.dumps({
        "vocab": p(ws, "vocab.txt"), "params": p(ws, "base.enc"),
        "prf_params": p(ws, "prf.enc"), "index": p(ws, "docs.idx"),
        "corpus": p(ws, "corpus.tsv"), "queries": p(ws, "queries.tsv"),
        "qrels": p(ws, "qrels.txt"), "run": p(ws, "prf.run"),
        "prf_depth": 5, "topk": 3,
    }))
    for command in ("search-prf", "train"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "prf_depth exceeds topk" in capsys.readouterr().err


def test_search_topk_below_default_prf_depth(ws):
    # First-round search never uses prf_depth (default 3).
    build_base(ws)
    assert main([
        "search", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--queries", p(ws, "queries.tsv"),
        "--run", p(ws, "base.run"), "--topk", "2",
    ]) == 0
    run = read_run(ws / "base.run")
    assert max(h.rank for hits in run.by_query().values() for h in hits) == 2


def test_whitespace_in_ids_exits_2(ws, capsys):
    # Run files separate columns by whitespace, so such ids could not be read back.
    build_base(ws)
    (ws / "bad_corpus.tsv").write_text("d 1\tgarden fox\n")
    assert main([
        "encode-corpus", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--corpus", p(ws, "bad_corpus.tsv"), "--index", p(ws, "bad.idx"),
    ]) == 2
    assert "malformed corpus line 1" in capsys.readouterr().err
    (ws / "bad_queries.tsv").write_text("t1\tquantum flux\nt\u00a02\tgarden\n")
    assert main([
        "search", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--queries", p(ws, "bad_queries.tsv"),
        "--run", p(ws, "bad.run"),
    ]) == 2
    assert "malformed queries line 2" in capsys.readouterr().err


def test_unknown_train_key_exits_2(ws, capsys):
    build_base(ws)
    config = {
        "vocab": p(ws, "vocab.txt"), "params": p(ws, "base.enc"),
        "index": p(ws, "docs.idx"), "corpus": p(ws, "corpus.tsv"),
        "queries": p(ws, "queries.tsv"), "qrels": p(ws, "qrels.txt"),
        "prf_params": p(ws, "prf.enc"),
        "train": {"momentum": 0.9},
    }
    cfg_path = ws / "ws.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "unknown train config key: momentum" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ([], "workspace config must be a JSON object"),
    ({"prf_depth": "3"}, "config key prf_depth must be int, got str"),
    ({"topk": None}, "config key topk must be int, got NoneType"),
    ({"seed": 1.5}, "config key seed must be int, got float"),
    ({"topk": True}, "config key topk must be int, got bool"),
    ({"train": []}, "config key train must be dict, got list"),
])
def test_config_value_types_exit_2(ws, capsys, config, message):
    cfg_path = ws / "bad.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_train_config_value_types_exit_2(ws, capsys):
    # Checked before any input file is read.
    config = {
        "vocab": p(ws, "vocab.txt"), "params": p(ws, "base.enc"),
        "index": p(ws, "docs.idx"), "corpus": p(ws, "corpus.tsv"),
        "queries": p(ws, "queries.tsv"), "qrels": p(ws, "qrels.txt"),
        "prf_params": p(ws, "prf.enc"),
        "train": {"epochs": "2"},
    }
    cfg_path = ws / "ws.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "train config key epochs must be int, got str" in capsys.readouterr().err


def test_pool_depth_below_negatives_exits_2(ws, capsys):
    # Rejected with the config, before the first-round pass; no file exists yet.
    assert main([
        "train", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--corpus", p(ws, "corpus.tsv"),
        "--queries", p(ws, "queries.tsv"), "--qrels", p(ws, "qrels.txt"),
        "--prf-params", p(ws, "prf.enc"), "--negatives", "5", "--pool-depth", "4",
    ]) == 2
    err = capsys.readouterr().err
    assert "negative_pool_depth (4) must be >= negatives_per_query (5)" in err
    assert not (ws / "prf.enc").exists()


def test_eval_rejects_non_finite_run_score(ws, capsys):
    run_path = ws / "nan.run"
    run_path.write_text("q1 Q0 d1 1 nan t\nq1 Q0 d2 2 9.5 t\n")
    assert main(["eval", "--run", str(run_path), "--qrels", p(ws, "qrels.txt")]) == 2
    assert "malformed run line 1" in capsys.readouterr().err


def test_malformed_qrels_exits_2(ws, capsys):
    run_path = ws / "tiny.run"
    run_path.write_text("q1 Q0 d1 1 1.000000 t\n")
    bad = ws / "bad_qrels.txt"
    bad.write_text("q1 0 d1\n")
    assert main(["eval", "--run", str(run_path), "--qrels", str(bad)]) == 2
    assert "malformed qrels line 1" in capsys.readouterr().err


def test_write_failure_exits_1(ws, capsys):
    build_base(ws)
    target_dir = ws / "adir"
    target_dir.mkdir()
    code = main([
        "search", "--vocab", p(ws, "vocab.txt"), "--params", p(ws, "base.enc"),
        "--index", p(ws, "docs.idx"), "--queries", p(ws, "queries.tsv"),
        "--run", str(target_dir),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_dagger_marks_significant_rows(ws, capsys):
    # six queries; the run finds each positive at rank 1, the baseline at
    # varied depths, so the MRR difference is significant while recall ties
    qrels_lines = []
    run_lines = []
    base_lines = []
    for i in range(1, 7):
        qid = f"q{i}"
        qrels_lines.append(f"{qid} 0 rel{i} 2\n")
        run_lines.append(f"{qid} Q0 rel{i} 1 2.000000 run\n")
        run_lines.append(f"{qid} Q0 junk{i} 2 1.000000 run\n")
        base_rank = 2 if i < 6 else 4
        for r in range(1, base_rank):
            base_lines.append(f"{qid} Q0 junk{i}_{r} {r} {5 - r}.000000 bl\n")
        base_lines.append(f"{qid} Q0 rel{i} {base_rank} 0.500000 bl\n")
    (ws / "qrels6.txt").write_text("".join(qrels_lines))
    (ws / "good.run").write_text("".join(run_lines))
    (ws / "weak.run").write_text("".join(base_lines))

    assert main([
        "eval", "--run", p(ws, "good.run"), "--qrels", p(ws, "qrels6.txt"),
        "--baseline", p(ws, "weak.run"), "--recall-k", "10",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    mrr_line = next(l for l in lines if l.startswith("MRR"))
    recall_line = next(l for l in lines if l.startswith("Recall"))
    assert "†" in mrr_line
    assert "1.0000" in mrr_line
    # both runs retrieve every positive: zero-variance diff, no dagger
    assert "†" not in recall_line


def test_eval_without_baseline_has_no_daggers(ws, capsys):
    (ws / "tiny.run").write_text("q1 Q0 d1 1 1.000000 t\n")
    (ws / "tiny.qrels").write_text("q1 0 d1 2\n")
    assert main([
        "eval", "--run", p(ws, "tiny.run"), "--qrels", p(ws, "tiny.qrels"),
    ]) == 0
    assert "†" not in capsys.readouterr().out


def test_cli_reproduces_driver_runs(tmp_path):
    # The workspace is derived from the seed the way perfbench/workspace.py
    # derives it; the CLI's run files must equal the driver's byte for byte.
    seed = 0
    synth = {"topics": 4, "docs_per_topic": 15, "train_queries": 12, "eval_queries": 8}
    recipe = {"epochs": 2, "batch_size": 4, "negatives_per_query": 5,
              "negative_pool_depth": 20, "learning_rate": 1e-3}
    exp = ExperimentConfig(
        synth=SynthConfig(**synth), dim=16, layers=1, heads=2, max_len=64,
        train=TrainConfig(**recipe),
    ).with_seed(seed)
    result = run_experiment(exp, prepare_artifacts(exp))

    synth_cfg = SynthConfig(**synth, seed=derive_seed(seed, 10))
    task = generate(synth_cfg)
    vocab = build_vocab(task.corpus.values())
    enc_cfg = EncoderConfig(vocab_size=len(vocab), dim=16, layers=1, heads=2, max_len=64)
    base = init_params(enc_cfg, seed=derive_seed(seed, 1), scale=0.05)
    vocab.save(tmp_path / "vocab.txt")
    save_params(cluster_token_embeddings(base, vocab, task, synth_cfg), tmp_path / "base.enc")
    for name, rows in (("corpus", task.corpus.items()),
                       ("train_queries", task.train_queries),
                       ("eval_queries", task.eval_queries)):
        (tmp_path / f"{name}.tsv").write_text("".join(f"{k}\t{t}\n" for k, t in rows))
    task.train_qrels.save(tmp_path / "train_qrels.txt")
    config = {
        "vocab": p(tmp_path, "vocab.txt"), "corpus": p(tmp_path, "corpus.tsv"),
        "index": p(tmp_path, "docs.idx"), "params": p(tmp_path, "base.enc"),
        "prf_params": p(tmp_path, "prf.enc"), "template": "ance", "prf_depth": 3,
        "topk": 10, "max_len": 64, "seed": seed,
        "train": {"seed": derive_seed(seed, 11), **recipe},
    }
    (tmp_path / "ws.json").write_text(json.dumps(config))

    def cli(*argv):
        assert main([argv[0], "--config", p(tmp_path, "ws.json"), *argv[1:]]) == 0

    cli("encode-corpus")
    cli("search", "--queries", p(tmp_path, "eval_queries.tsv"), "--run", p(tmp_path, "base.run"))
    cli("train", "--queries", p(tmp_path, "train_queries.tsv"),
        "--qrels", p(tmp_path, "train_qrels.txt"))
    cli("search-prf", "--queries", p(tmp_path, "eval_queries.tsv"),
        "--run", p(tmp_path, "prf.run"))
    for name, run in (("base", result.round1_run), ("prf", result.prf_run)):
        write_run(run, tmp_path / f"driver_{name}.run")
        assert (tmp_path / f"{name}.run").read_bytes() == (
            tmp_path / f"driver_{name}.run").read_bytes()


# -- thread, BLAS-kernel and corpus-order invariance ---------------------------

# The tiny workflow above, run in a child process so that PRF_THREADS and
# OPENBLAS_CORETYPE take effect before numpy loads its BLAS.
PIPELINE = [
    ["build-vocab"],
    ["init-params", "--dim", "16", "--layers", "1", "--heads", "2"],
    ["encode-corpus"],
    ["search", "--run", "base.run"],
    ["train", "--epochs", "1", "--batch-size", "4", "--lr", "1e-4",
     "--negatives", "3", "--pool-depth", "8"],
    ["search-prf", "--run", "prf.run"],
]
PIPELINE_CONFIG = {
    "vocab": "vocab.txt", "params": "base.enc", "prf_params": "prf.enc",
    "index": "docs.idx", "corpus": "corpus.tsv", "queries": "queries.tsv",
    "qrels": "qrels.txt", "topk": 8, "prf_depth": 2, "max_len": 64,
}
CHILD = """\
import json, sys
from denseprf.cli import main
for argv in json.loads(sys.argv[1]):
    if main([argv[0], "--config", "ws.json", *argv[1:]]):
        sys.exit(f"failed: {argv}")
"""
OUTPUTS = ("docs.idx", "base.run", "prf.enc", "prf.run")
BLAS_ENV = ("PRF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")


def child_env(**env):
    """This environment without BLAS settings, ``env`` on top, denseprf importable."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    src = str(Path(denseprf.__file__).parents[1])
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**base, **env}


def run_pipeline(workdir, corpus=CORPUS, **env):
    """Outputs of PIPELINE in a fresh child process with ``env`` on top."""
    write_inputs(workdir, corpus)
    (workdir / "ws.json").write_text(json.dumps(PIPELINE_CONFIG))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(PIPELINE)], cwd=workdir,
        env=child_env(**env), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return {name: (workdir / name).read_bytes() for name in OUTPUTS}


@pytest.mark.parametrize("env, want", [
    # PRF_THREADS overrides every BLAS thread variable already set ...
    ({"PRF_THREADS": "1", "OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2",
      "MKL_NUM_THREADS": "2"}, ["1", "1", "1"]),
    ({"PRF_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, ["1", "1", "1"]),
    # ... and without it they are left alone.
    ({"OPENBLAS_NUM_THREADS": "2"}, [None, "2", None]),
])
def test_prf_threads_sets_blas_threads(env, want):
    child = ("import json, os, denseprf; print(json.dumps([os.environ.get(v) for v in"
             " ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')]))")
    done = subprocess.run([sys.executable, "-c", child], env=child_env(**env),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == want


def dynamic_openblas_x86() -> bool:
    """True when numpy's OpenBLAS picks its kernel at run time on x86-64."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return platform.machine() == "x86_64" and "DYNAMIC_ARCH" in str(blas)


@pytest.fixture(scope="module")
def one_thread_outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("reference"), PRF_THREADS="1")


@pytest.mark.parametrize("env, corpus, same, differ", [
    # At this shape OpenBLAS may keep to one thread, so the case pins the
    # contract at this shape only.  Never ask for more than 2 threads.
    pytest.param({"PRF_THREADS": "2"}, CORPUS, OUTPUTS, (), id="threads-2"),
    # Prescott is SSE3, present on every x86-64 CPU.  Trained params files
    # are reproducible per kernel only, so prf.enc is not compared.
    pytest.param(
        {"PRF_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott"}, CORPUS,
        ("docs.idx", "base.run", "prf.run"), (), id="blas-prescott",
        marks=pytest.mark.skipif(not dynamic_openblas_x86(),
                                 reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64"),
    ),
    # Index rows follow the corpus file; rankings and training do not.
    pytest.param({"PRF_THREADS": "1"}, dict(reversed(CORPUS.items())),
                 ("base.run", "prf.enc", "prf.run"), ("docs.idx",),
                 id="corpus-reversed"),
])
def test_outputs_invariant(tmp_path, one_thread_outputs, env, corpus, same, differ):
    got = run_pipeline(tmp_path, corpus, **env)
    for name in same:
        assert got[name] == one_thread_outputs[name], name
    for name in differ:
        assert got[name] != one_thread_outputs[name], name
