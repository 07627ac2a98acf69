#!/usr/bin/env python3
"""Compare inheriting vs re-initializing the projection head before training.

Both arms share one synthetic task and differ only in how the feedback
encoder's head starts: copied from the frozen base encoder, or drawn fresh.
Reports the step-0 retrieval identity check and final eval MRR@10 per arm.
"""

import argparse
from dataclasses import replace

from denseprf.encoder import HeadPolicy
from denseprf.synth import ExperimentConfig, prepare_artifacts, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    args = parser.parse_args()

    exp = ExperimentConfig().with_seed(args.seed)
    art = prepare_artifacts(exp)
    final = {}
    for policy in (HeadPolicy.INHERIT, HeadPolicy.REINIT):
        arm_exp = replace(exp, train=replace(exp.train, head_policy=policy))
        arm = run_experiment(arm_exp, art)
        final[policy] = arm.prf_mrr
        losses = arm.epoch_losses
        trajectory = " ".join(f"{losses[e]:.4f}" for e in sorted(losses))
        print(f"{policy.name.lower():>7}:"
              f" step-0 ranking matches base encoder: {arm.step0_matches_base};"
              f" final MRR@10 {arm.prf_mrr:.4f}")
        print(f"         epoch mean loss: {trajectory}")
    gap = final[HeadPolicy.INHERIT] - final[HeadPolicy.REINIT]
    print(f"inherit - reinit MRR@10 gap: {gap:+.4f}")


if __name__ == "__main__":
    main()
