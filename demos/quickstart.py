"""Generate a synthetic night, run all three trackers, compare them.

Takes roughly ten seconds: the default night is about three hours of
signal and every tracker walks it sample by sample.
"""
import numpy as np

from swphase import (SynthSpec, TrackerConfig, evaluate_session, generate,
                     run_session, zero_phase_bandpass)
from swphase.bench import measure_pipeline_cost


def main():
    print("generating the default synthetic night (seed 0)...")
    out = generate(SynthSpec(seed=0))
    rec = out.recording
    print(f"  {rec.duration_s / 3600:.2f} h at {rec.fs:g} Hz, "
          f"{len(rec.samples)} samples\n")

    # the offline oracle filter is shared by every evaluation
    filtered = zero_phase_bandpass(rec.samples, rec.fs)

    header = (f"{'algo':>5} {'delivered':>9} {'up-phase':>8} {'mean':>7} "
              f"{'cmae45':>7} {'pas-up':>7} {'low-cap':>7} {'high-cap':>8} "
              f"{'interval':>8}")
    print(header)
    print("-" * len(header))
    for algo in ("at", "pll", "pv"):
        session = run_session(rec, TrackerConfig(algorithm=algo))
        r = evaluate_session(rec, session, filtered=filtered)
        print(f"{algo:>5} {r.n_delivered:>9} {r.up_phase_pct:>7.1f}% "
              f"{r.circular_mean_deg:>6.1f}d {r.cmae45_deg:>6.2f}d "
              f"{r.pas_in_up:>6.2f}% {r.low_capacity_pct:>6.1f}% "
              f"{r.high_capacity_pct:>7.1f}% {r.median_interval_s:>7.3f}s")

    print("\nper-sample cost (phase vocoder, the most expensive tracker):")
    rep = measure_pipeline_cost()
    stages = ", ".join(f"{n} {ns:.0f} ns" for n, ns in rep.stages("pv").items())
    print(f"  {stages}")
    print(f"  total {rep.total_ns('pv'):.0f} ns per {rep.sample_period_ns:.0f} ns "
          f"sample period: rcr {rep.rcr('pv'):.5f}, "
          f"efficiency {rep.efficiency_pct('pv'):.2f}%")
    print(f"  pv/pll tracker cost ratio {rep.pv_pll_ratio:.2f}, same run")


if __name__ == "__main__":
    main()
