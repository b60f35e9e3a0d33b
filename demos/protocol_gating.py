"""The autonomous gate in action: cold start, sleep-stage blocking, and
the 6 s ON / 6 s OFF experimental protocol.

Runs the vocoder over a night that starts awake, prints when the gate
first opens, what suppressed every candidate, and an ASCII timeline of
protocol windows around the first deliveries.
"""
from swphase import GateConfig, SynthSpec, TrackerConfig, generate, run_session
from swphase.gate import on_window_at


def main():
    # ten minutes of wake, then deep sleep
    hyp = ["W"] * 30 + ["N3"] * 60
    out = generate(SynthSpec(hypnogram=hyp, seed=41))
    rec = out.recording
    wake_end_s = 30 * 20.0

    gate_config = GateConfig(onoff_enabled=True)
    session = run_session(rec, TrackerConfig(algorithm="pv"), gate_config)
    delivered = session.delivered()
    first = delivered[0].time_s
    print(f"night: {len(hyp)} epochs, wake until {wake_end_s:.0f} s")
    print(f"candidates {len(session.log)}, delivered {len(delivered)}, "
          f"suppressed {session.suppression_counts()}")
    print(f"first delivery at {first:.1f} s (wake blocks the gate; the vote "
          "re-opens once deep-sleep windows dominate its 80 s history)")

    inside = sum(e.on_window for e in delivered)
    print(f"protocol check: {inside}/{len(delivered)} deliveries inside ON windows")

    # one-character-per-second timeline: ON/off protocol vs deliveries
    cycle = int(2 * gate_config.onoff_period_s)
    start = int(first // cycle) * cycle
    span = 96
    marks = set(int(e.time_s) for e in delivered if start <= e.time_s < start + span)
    protocol = "".join("N" if on_window_at(s, gate_config) else "f"
                       for s in range(start, start + span))
    hits = "".join("*" if s in marks else "." for s in range(start, start + span))
    print(f"\ntimeline from {start} s (N=ON window, f=OFF window, *=delivery):")
    for row in (protocol, hits):
        for i in range(0, span, 48):
            print("  " + row[i:i + 48])
        print()


if __name__ == "__main__":
    main()
