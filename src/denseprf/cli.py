"""Command-line workflow: vocab, encoding, search, training, evaluation.

Every subcommand accepts a JSON workspace config (--config) whose values are
overridden by explicit flags.  All randomness flows from one --seed fanned
into labeled sub-seeds.  Exit codes: 0 success, 2 usage or validation error,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field

from .composer import PrfDepth, PrfTemplate, TemplateKind
from .encoder import EncoderConfig, init_params, load_params, save_params
from .evaluator import (
    MetricReport,
    Qrels,
    mrr_at_k,
    ndcg_at_k,
    paired_t_test,
    recall_at_k,
)
from .index import VectorIndex
from .pipeline import (
    encode_corpus,
    read_corpus_tsv,
    read_queries_tsv,
    read_run,
    search_prf_run,
    search_run,
    write_run,
)
from .tokenizer import CasePolicy, Vocab, build_vocab
from .trainer import TrainConfig, check_config, derive_seed, train_prf, write_log_csv

# Labels for fanning the master seed into independent streams.
SEED_INIT = 1
SEED_NEGATIVES = 2
SEED_TRAIN = 3


def _names(kind) -> list[str]:
    return sorted(member.value for member in kind)


@dataclass
class WorkspaceConfig:
    """Paths and knobs shared across subcommands; flags override fields."""

    vocab: str | None = None
    corpus: str | None = None
    queries: str | None = None
    qrels: str | None = None
    index: str | None = None
    params: str | None = None
    prf_params: str | None = None
    run: str | None = None
    template: str = "ance"
    case: str = "preserve"
    prf_depth: int = 3
    topk: int = 1000
    max_len: int = 512
    seed: int = 0
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.template not in _names(TemplateKind):
            raise ValueError(f"unknown template: {self.template}")
        if self.case not in _names(CasePolicy):
            raise ValueError(f"unknown case policy: {self.case}")
        if self.prf_depth < 1:
            raise ValueError("prf_depth must be >= 1")
        if self.topk < 1:
            raise ValueError("topk must be >= 1")

    @classmethod
    def load(cls, path) -> "WorkspaceConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("workspace config must be a JSON object")
        check_config(cls, raw, "config")
        return cls(**raw)


def _resolve(args) -> WorkspaceConfig:
    """Config file first, explicit flags on top."""
    cfg = WorkspaceConfig.load(args.config) if args.config else WorkspaceConfig()
    updates = {}
    for f in dataclasses.fields(WorkspaceConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            updates[f.name] = flag
    return dataclasses.replace(cfg, **updates)


def _prf_depth(cfg: WorkspaceConfig) -> PrfDepth:
    """Feedback depth for the commands that compose feedback queries."""
    if cfg.prf_depth > cfg.topk:
        raise ValueError("prf_depth exceeds topk")
    return PrfDepth(cfg.prf_depth)


def _require(cfg: WorkspaceConfig, *names: str) -> list[str]:
    values = []
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            raise ValueError(f"missing required setting: {name}")
        values.append(value)
    return values


# -- subcommands -------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    cfg = _resolve(args)
    corpus_path, vocab_path = _require(cfg, "corpus", "vocab")
    docs = read_corpus_tsv(corpus_path)
    vocab = build_vocab(docs.values(), min_count=args.min_count)
    vocab.save(vocab_path)
    print(f"wrote {len(vocab)} tokens to {vocab_path}")
    return 0


def cmd_init_params(args) -> int:
    cfg = _resolve(args)
    vocab_path, out_path = _require(cfg, "vocab", "params")
    vocab = Vocab.load(vocab_path)
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab),
        dim=args.dim,
        layers=args.layers,
        heads=args.heads,
        max_len=cfg.max_len,
    )
    params = init_params(enc_cfg, seed=derive_seed(cfg.seed, SEED_INIT))
    save_params(params, out_path)
    print(f"wrote encoder params ({enc_cfg.dim}d, {enc_cfg.layers} layers) to {out_path}")
    return 0


def cmd_encode_corpus(args) -> int:
    cfg = _resolve(args)
    vocab_path, params_path, corpus_path, index_path = _require(
        cfg, "vocab", "params", "corpus", "index"
    )
    vocab = Vocab.load(vocab_path)
    params = load_params(params_path)
    docs = read_corpus_tsv(corpus_path)
    index = encode_corpus(docs, vocab, params, CasePolicy(cfg.case))
    index.save(index_path)
    print(f"indexed {len(index)} docs, checksum {index.checksum:016x}")
    return 0


def cmd_search(args) -> int:
    cfg = _resolve(args)
    vocab_path, params_path, index_path, queries_path, run_path = _require(
        cfg, "vocab", "params", "index", "queries", "run"
    )
    vocab = Vocab.load(vocab_path)
    params = load_params(params_path)
    index = VectorIndex.load(index_path)
    queries = read_queries_tsv(queries_path)
    run = search_run(queries, vocab, params, index, cfg.topk, CasePolicy(cfg.case))
    write_run(run, run_path)
    print(f"wrote {len(queries)} queries x top-{cfg.topk} to {run_path}")
    return 0


def cmd_search_prf(args) -> int:
    cfg = _resolve(args)
    (vocab_path, params_path, prf_path, index_path,
     corpus_path, queries_path, run_path) = _require(
        cfg, "vocab", "params", "prf_params", "index", "corpus", "queries", "run"
    )
    depth = _prf_depth(cfg)
    vocab = Vocab.load(vocab_path)
    base = load_params(params_path)
    prf = load_params(prf_path)
    index = VectorIndex.load(index_path)
    texts = read_corpus_tsv(corpus_path)
    template = PrfTemplate(TemplateKind(cfg.template), max_len=base.config.max_len)
    queries = read_queries_tsv(queries_path)
    run = search_prf_run(
        queries, vocab, base, prf, index, texts,
        depth, template, cfg.topk, CasePolicy(cfg.case),
    )
    write_run(run, run_path)
    print(f"wrote {len(queries)} queries x top-{cfg.topk} to {run_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    (vocab_path, params_path, index_path, corpus_path,
     queries_path, qrels_path, out_path) = _require(
        cfg, "vocab", "params", "index", "corpus", "queries", "qrels", "prf_params"
    )
    depth = _prf_depth(cfg)
    overrides = {
        k: v
        for k, v in (
            ("optimizer", args.optimizer),
            ("learning_rate", args.lr),
            ("batch_size", args.batch_size),
            ("grad_accum_steps", args.accum),
            ("epochs", args.epochs),
            ("negatives_per_query", args.negatives),
            ("negative_pool_depth", args.pool_depth),
            ("head_policy", args.head_policy),
        )
        if v is not None
    }
    if args.in_batch:
        overrides["in_batch_negatives"] = True
    block = dict(cfg.train)
    block.update(overrides)
    block.setdefault("seed", derive_seed(cfg.seed, SEED_TRAIN))
    train_cfg = TrainConfig.from_dict(block)

    vocab = Vocab.load(vocab_path)
    base = load_params(params_path)
    index = VectorIndex.load(index_path)
    texts = read_corpus_tsv(corpus_path)
    queries = read_queries_tsv(queries_path)
    qrels = Qrels.load(qrels_path)

    template = PrfTemplate(TemplateKind(cfg.template), max_len=base.config.max_len)
    params, log = train_prf(
        vocab, base, index, texts, queries, qrels, CasePolicy(cfg.case), depth,
        template, train_cfg, negatives_seed=derive_seed(cfg.seed, SEED_NEGATIVES),
    )
    save_params(params, out_path)
    if args.log:
        write_log_csv(log, args.log)
    if log:
        print(f"{len(log)} steps, first loss {log[0].loss:.6f}, "
              f"last loss {log[-1].loss:.6f}")
    print(f"wrote trained params to {out_path}")
    return 0


def _format_table(rows: list[tuple[MetricReport, str]]) -> str:
    lines = [f"{'metric':<8}{'cutoff':>8}{'mean':>10}  sig"]
    for report, dagger in rows:
        lines.append(
            f"{report.metric_name:<8}{report.cutoff:>8}{report.mean:>10.4f}  {dagger}"
        )
    return "\n".join(lines)


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    run_path, qrels_path = _require(cfg, "run", "qrels")
    run = read_run(run_path)
    qrels = Qrels.load(qrels_path)
    baseline = read_run(args.baseline) if args.baseline else None

    def metric_pair(fn, k):
        ours = fn(run, qrels, k)
        dagger = ""
        if baseline is not None:
            theirs = fn(baseline, qrels, k)
            try:
                _, p, _ = paired_t_test(ours.per_query, theirs.per_query)
                if p < 0.05:
                    dagger = "†"
            except ValueError:
                pass
        return ours, dagger

    rows = [
        metric_pair(mrr_at_k, args.mrr_k),
        metric_pair(ndcg_at_k, args.ndcg_k),
        metric_pair(recall_at_k, args.recall_k),
    ]
    print(_format_table(rows))
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sub, *flags):
    sub.add_argument("--config", help="JSON workspace config")
    if "vocab" in flags:
        sub.add_argument("--vocab", help="vocab file path")
    if "corpus" in flags:
        sub.add_argument("--corpus", help="corpus TSV (doc_id<TAB>text)")
    if "queries" in flags:
        sub.add_argument("--queries", help="queries TSV (query_id<TAB>text)")
    if "qrels" in flags:
        sub.add_argument("--qrels", help="qrels file")
    if "index" in flags:
        sub.add_argument("--index", help="vector index file")
    if "params" in flags:
        sub.add_argument("--params", help="base encoder params file")
    if "prf_params" in flags:
        sub.add_argument("--prf-params", dest="prf_params",
                         help="feedback encoder params file")
    if "run" in flags:
        sub.add_argument("--run", help="run file path")
    if "search" in flags:
        sub.add_argument("--topk", type=int, help="results per query")
        sub.add_argument("--case", choices=_names(CasePolicy),
                         help="casing policy for query and feedback text")
    if "prf" in flags:
        sub.add_argument("--template", choices=_names(TemplateKind),
                         help="feedback query template")
        sub.add_argument("--prf-depth", dest="prf_depth", type=int,
                         help="feedback documents per query")
    sub.add_argument("--seed", type=int, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denseprf",
        description="Dense retrieval with a trained feedback query encoder.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build-vocab", help="build a vocab from a corpus TSV")
    _add_common(sub, "corpus", "vocab")
    sub.add_argument("--min-count", type=int, default=1)
    sub.set_defaults(func=cmd_build_vocab)

    sub = subs.add_parser("init-params", help="initialize base encoder params")
    _add_common(sub, "vocab", "params")
    sub.add_argument("--dim", type=int, default=64)
    sub.add_argument("--layers", type=int, default=2)
    sub.add_argument("--heads", type=int, default=4)
    sub.add_argument("--max-len", dest="max_len", type=int)
    sub.set_defaults(func=cmd_init_params)

    sub = subs.add_parser("encode-corpus", help="embed corpus and build the index")
    _add_common(sub, "vocab", "params", "corpus", "index", "search")
    sub.set_defaults(func=cmd_encode_corpus)

    sub = subs.add_parser("search", help="first-round retrieval to a run file")
    _add_common(sub, "vocab", "params", "index", "queries", "run", "search")
    sub.set_defaults(func=cmd_search)

    sub = subs.add_parser("search-prf", help="two-round feedback retrieval")
    _add_common(sub, "vocab", "params", "prf_params", "index", "corpus",
                "queries", "run", "search", "prf")
    sub.set_defaults(func=cmd_search_prf)

    sub = subs.add_parser("train", help="train the feedback query encoder")
    _add_common(sub, "vocab", "params", "prf_params", "index", "corpus",
                "queries", "qrels", "search", "prf")
    sub.add_argument("--optimizer", choices=("adamw", "lamb"))
    sub.add_argument("--lr", type=float)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--accum", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--negatives", type=int)
    sub.add_argument("--pool-depth", type=int)
    sub.add_argument("--in-batch", action="store_true")
    sub.add_argument("--head-policy", choices=("inherit", "reinit"))
    sub.add_argument("--log", help="training log CSV path")
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("eval", help="score a run against qrels")
    _add_common(sub, "run", "qrels")
    sub.add_argument("--baseline", help="baseline run for significance daggers")
    sub.add_argument("--mrr-k", type=int, default=10)
    sub.add_argument("--ndcg-k", type=int, default=10)
    sub.add_argument("--recall-k", type=int, default=1000)
    sub.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename or exc
        print(f"error: no such file: {name}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures keep a distinct code
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
