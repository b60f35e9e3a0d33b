"""SHA-256 digests of what the commands write, on two 760 s nights.

The nights are the ones CI's "Installed command" step makes (seeds 0 and
1). Pinned: the ``simulate`` recording in both flavors, each tracker's
trigger log with its ``evaluate --json`` report and ``evaluate`` stdout,
the PV's log and report on night 0 with the ON-OFF protocol on,
``calibrate``'s stdout, and ``optimize --json`` over both nights. A change
that moves any byte fails here. A change meant to move an output updates
its digest in the same commit and names it in CHANGES.md.

Like ``test_synth.PINNED_NIGHTS``, the digests depend on libm (``math.sin``,
``cos``, ``atan2``) and on the numpy and scipy builds.
"""
import contextlib
import hashlib
import io

import pytest

from swphase.cli import main
from swphase.trackers import ALGORITHMS

STAGES = "W*4 N2*10 N3*20 N2*4"
SEEDS = (0, 1)
GRID = "phi_target_deg = 30,45\n"

PINNED = {
    "night0.at.evaluate.stdout": "0cebc76b0cb473be96b26a253bc071b9cd7f01529e1c036c3cedad5f1690fc81",
    "night0.at.json": "5a661ab699d0904c3d1bfe527795a49dc5d6117580df51f79babaf44995208e6",
    "night0.at.trig.csv": "e6cf0d9b05570eb36560e135f3290e859edcef38bc79b6a7cf93d1e04d0cffe8",
    "night0.calibrate.stdout": "98a7659ca7697524a6630e29858edb6ab5f19e257e35c2ed5655f1f835cafd99",
    "night0.csv": "d4f3627de77959fbaf2b31cbebe4e6b7a6582de5f68b06d3b06f0c456ce97308",
    "night0.pll.evaluate.stdout": "e78a54b78a84641233d948d4b3db0f77feadf1442ac51c0396fe5d8bff412441",
    "night0.pll.json": "8776d7f26e0a66ad54ed94afad80d2bc871c3b804c9761b393f5477ee013755a",
    "night0.pll.trig.csv": "1cf002c3df1c5ffbd85b057def8b4ccfbcccd0e1e5d4b4c95baf75e00f8f9406",
    "night0.pv.evaluate.stdout": "b9f008d22ec79abf7bd297e93fea87fb7c4ebc873d816efb525d7eb700d018f5",
    "night0.pv.json": "0371e5229636870bf3cc7f0d9a0d3d454c6a202f8888c98ae5df3bfa663b0eb6",
    "night0.pv.onoff.json": "7902779b19be6cfe577a3a2fa537ddd46ebcead6eadf7a7021f4c4931180c4ad",
    "night0.pv.onoff.trig.csv": "11d8447b118e40433f5f5577cd83e4d1f0020e9278b968aab72a5ed7c82accd7",
    "night0.pv.trig.csv": "e67d2bb03591b6a926c4d0c71764f02a435b528a75be06c2d57179b952d35c49",
    "night0.swp": "206cc5ffcb17aa4d6a12b2e15aeb660c9de1232c6d6d9e50d35dd9273bfba07d",
    "night1.at.evaluate.stdout": "1f08a55c1f0b5779963a4b84ca7fc9e42613273b39cb6336d0aa62374e98819e",
    "night1.at.json": "45394bb3ed613fcd9e15d00eacef48cc02015a42f7d23d986ce274cd56289e3a",
    "night1.at.trig.csv": "222f7f9d807c3a571cccf003a2d787c15a48143ce9272f7a00935de385dc8de7",
    "night1.calibrate.stdout": "ab524b22c1112cedd42dc3945f47884dd3c4b2f38e6fd6bf86176f79719d506c",
    "night1.csv": "a5f76646822ed5505b43024d8bbcbcca56e07b4902ff82dce50c7e6fefd082cf",
    "night1.pll.evaluate.stdout": "2df7e0f6d385dc95738142e747bef05d63911e411470d42e017e1197f6361fef",
    "night1.pll.json": "312bee1b28b5a99816de8ca237c19865cd2ff839f1540be707f7dff3a336815f",
    "night1.pll.trig.csv": "67941894fae2a5860168aacf0b5ef650ab3a779800ab51d7105705aff4e27f07",
    "night1.pv.evaluate.stdout": "100daf16c6ab6ac0dc404815964d2a8ca7994176fba075f2f7143c37526e2f7a",
    "night1.pv.json": "8cba730fb6e16d238b62e1e612471f40eef9b9b1b18755106e64862aa4dd93fe",
    "night1.pv.trig.csv": "5cafc6294fb94b95fc2996a5481e2c8dcea1c28c2f6efc52eceaca78fbcb6afe",
    "night1.swp": "28c29d2639d3d520a83a756dbb398dc33acf587cbaf66fd36e9b6747539f1fa2",
    "optimize.json": "e24ec56250bdba8d6c71ac95d0e1dcd80a6f574c6dc303a3f70848afe7a41f1c",
}


def _run(argv) -> str:
    """stdout of one command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    out = {}
    for seed in SEEDS:
        night, hyp = root / f"night{seed}.swp", root / f"night{seed}.hyp.csv"
        csv = root / f"night{seed}.csv"
        common = ["--stages", STAGES, "--seed", str(seed)]
        _run(["simulate", "--out", str(night), "--hypnogram-out", str(hyp), *common])
        _run(["simulate", "--out", str(csv), *common])
        files = [night, csv]
        for algo in ALGORITHMS:
            log, report = root / f"night{seed}.{algo}.trig.csv", root / f"night{seed}.{algo}.json"
            _run(["track", "--input", str(night), "--out", str(log), "--algorithm", algo])
            text = _run(["evaluate", "--input", str(night), "--triggers", str(log),
                         "--hypnogram", str(hyp), "--json", str(report)])
            out[f"night{seed}.{algo}.evaluate.stdout"] = _sha256(text.encode())
            files += [log, report]
        if seed == 0:   # the ON-OFF protocol's half of the gate verdict
            log, report = root / "night0.pv.onoff.trig.csv", root / "night0.pv.onoff.json"
            _run(["track", "--input", str(night), "--out", str(log),
                  "--gate-set", "onoff_enabled=true"])
            _run(["evaluate", "--input", str(night), "--triggers", str(log),
                  "--hypnogram", str(hyp), "--json", str(report)])
            files += [log, report]
        out.update((p.name, _sha256(p.read_bytes())) for p in files)
        text = _run(["calibrate", "--input", str(night), "--hypnogram", str(hyp)])
        out[f"night{seed}.calibrate.stdout"] = _sha256(text.encode())
    grid, result = root / "grid.txt", root / "optimize.json"
    grid.write_text(GRID)
    _run(["optimize", *(str(root / f"night{s}.swp") for s in SEEDS), "--algorithm", "pv",
          "--grid", str(grid), "-k", "2", "--json", str(result)])
    out[result.name] = _sha256(result.read_bytes())
    return out


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_is_pinned(digests, name):
    assert digests[name] == PINNED[name]
