"""Run the cross-validated grid search and rank the shipped tracker
defaults in it.

Builds a five-recording corpus of single sleep cycles, then runs the
default parameter grid for each algorithm with 5-fold cross-validation, and
prints each shipped default's rank and its ed_error gap to the winner. The
search did not produce the shipped AT and PLL defaults: it picks AT 20 uV,
where the shipped 30 uV ranks 2nd of 6, and PLL (255 deg, 0.01), where the
shipped (195 deg, 4e-4) ranks 17th of 120. The shipped PV (45 deg, 2.0,
125) ranks 20th of 384, 0.003 in ed_error behind (45 deg, 1.0, 250).
Expect about a minute of wall time; the vocoder grid is the big one.
"""
import argparse
import time

from swphase import (SynthSpec, TrackerConfig, generate, grid_search_cv,
                     make_pipeline_evaluator)
from swphase.optimize import default_grid
from swphase.synth import default_hypnogram
from swphase.trackers import DEFAULT_TARGET_DEG

SHIPPED = {
    "at": {"at_threshold_uv": TrackerConfig(algorithm="at").at_threshold_uv},
    "pll": {"phi_target_deg": DEFAULT_TARGET_DEG["pll"],
            "k_pll": TrackerConfig(algorithm="pll").k_pll},
    "pv": {"phi_target_deg": DEFAULT_TARGET_DEG["pv"],
           "k_pv": TrackerConfig(algorithm="pv").k_pv,
           "maf_span": TrackerConfig(algorithm="pv").maf_span},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--algorithm", choices=("at", "pll", "pv"),
                    help="run one grid instead of all three")
    ap.add_argument("--recordings", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"generating {args.recordings} one-cycle recordings...")
    recordings = [generate(SynthSpec(hypnogram=default_hypnogram(1),
                                     seed=100 + i)).recording
                  for i in range(args.recordings)]

    for algo in (args.algorithm,) if args.algorithm else ("at", "pll", "pv"):
        grid = default_grid(algo)
        n_combos = 1
        for vals in grid.values():
            n_combos *= len(vals)
        k = min(5, len(recordings))
        print(f"\n{algo}: {n_combos} combos, {k}-fold CV, seed {args.seed}")
        t0 = time.perf_counter()
        evaluate = make_pipeline_evaluator(recordings, algo)
        outcome = grid_search_cv(recordings, grid, evaluate, k=k,
                                 seed=args.seed)
        dt = time.perf_counter() - t0
        ranked = sorted(outcome.results, key=lambda r: (r.ed_error,
                                                        r.mean_val_ed))
        print(f"  searched in {dt:.0f} s; top of the table:")
        for r in ranked[:3]:
            print(f"    ed_error={r.ed_error:.4f} val={r.mean_val_ed:.4f} "
                  f"{r.combo}")
        rank = next(i for i, r in enumerate(ranked) if r.combo == SHIPPED[algo])
        gap = ranked[rank].ed_error - ranked[0].ed_error
        print(f"  shipped default: {SHIPPED[algo]}, rank {rank + 1} of {len(ranked)}, "
              f"ed_error {ranked[rank].ed_error:.4f}, {gap:.4f} above the winner")


if __name__ == "__main__":
    main()
