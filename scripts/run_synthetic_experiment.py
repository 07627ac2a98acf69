#!/usr/bin/env python3
"""Run the synthetic feedback-retrieval experiment end to end.

Generates the topic-cluster task, indexes the corpus under a frozen random
encoder, trains the feedback query encoder, and reports first-round vs
feedback-round MRR@10, the step-0 feedback MRR@10 of the untrained feedback
encoder, the training trajectory, a paired t-test over the eval queries and
the index checksum.  The index arrays are read-only, so every round searched
the index that checksum was computed over.
"""

import argparse
from dataclasses import replace

from denseprf.evaluator import mrr_at_k, paired_t_test
from denseprf.synth import ExperimentConfig, prepare_artifacts, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--epochs", type=int, help="override training epochs")
    parser.add_argument("--lr", type=float, help="override learning rate")
    args = parser.parse_args()

    exp = ExperimentConfig().with_seed(args.seed)
    if args.epochs is not None:
        exp = replace(exp, train=replace(exp.train, epochs=args.epochs))
    if args.lr is not None:
        exp = replace(exp, train=replace(exp.train, learning_rate=args.lr))

    art = prepare_artifacts(exp)
    result = run_experiment(exp, art)

    losses = result.epoch_losses
    print(f"seed {args.seed}: {exp.synth.topics} topics,"
          f" {exp.synth.topics * exp.synth.docs_per_topic} docs,"
          f" {exp.synth.train_queries} train / {exp.synth.eval_queries} eval queries")
    print("epoch mean loss:", " ".join(f"{losses[e]:.4f}" for e in sorted(losses)))
    print(f"first-round MRR@10: {result.round1_mrr:.4f}")
    print(f"feedback MRR@10:    {result.prf_mrr:.4f}  (gap {result.mrr_gap:+.4f})")
    print(f"step-0 feedback MRR@10 (untrained encoder): {result.step0_mrr:.4f}")

    qrels = art.task.eval_qrels
    k = exp.topk if exp.topk <= 10 else 10
    prf = mrr_at_k(result.prf_run, qrels, k).per_query
    base = mrr_at_k(result.round1_run, qrels, k).per_query
    try:
        t, p, n = paired_t_test(prf, base)
        print(f"paired t-test over {n} queries: t={t:.4f} p={p:.4f}")
    except ValueError:
        print("paired t-test degenerate (constant or too few differences)")

    print(f"index checksum: {art.index.checksum:016x}")


if __name__ == "__main__":
    main()
