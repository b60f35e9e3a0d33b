"""SHA-256 digests of what the commands write, on two 760 s nights.

The nights are the ones CI's "Installed command" step makes (seeds 0 and
1). Pinned: the ``simulate`` recording in both flavors and its phase-track
sidecar, each tracker's trigger log and its ``evaluate --json`` report,
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
    "night0.at.json": "5a661ab699d0904c3d1bfe527795a49dc5d6117580df51f79babaf44995208e6",
    "night0.at.trig.csv": "e6cf0d9b05570eb36560e135f3290e859edcef38bc79b6a7cf93d1e04d0cffe8",
    "night0.calibrate.stdout": "98a7659ca7697524a6630e29858edb6ab5f19e257e35c2ed5655f1f835cafd99",
    "night0.csv": "d4f3627de77959fbaf2b31cbebe4e6b7a6582de5f68b06d3b06f0c456ce97308",
    "night0.phase": "132dd196c8f1a88bca2ba03a38755b265821fd9e22114f800f5071fa6110f6a3",
    "night0.pll.json": "8776d7f26e0a66ad54ed94afad80d2bc871c3b804c9761b393f5477ee013755a",
    "night0.pll.trig.csv": "1cf002c3df1c5ffbd85b057def8b4ccfbcccd0e1e5d4b4c95baf75e00f8f9406",
    "night0.pv.json": "0371e5229636870bf3cc7f0d9a0d3d454c6a202f8888c98ae5df3bfa663b0eb6",
    "night0.pv.trig.csv": "e67d2bb03591b6a926c4d0c71764f02a435b528a75be06c2d57179b952d35c49",
    "night0.swp": "206cc5ffcb17aa4d6a12b2e15aeb660c9de1232c6d6d9e50d35dd9273bfba07d",
    "night1.at.json": "45394bb3ed613fcd9e15d00eacef48cc02015a42f7d23d986ce274cd56289e3a",
    "night1.at.trig.csv": "222f7f9d807c3a571cccf003a2d787c15a48143ce9272f7a00935de385dc8de7",
    "night1.calibrate.stdout": "ab524b22c1112cedd42dc3945f47884dd3c4b2f38e6fd6bf86176f79719d506c",
    "night1.csv": "a5f76646822ed5505b43024d8bbcbcca56e07b4902ff82dce50c7e6fefd082cf",
    "night1.phase": "268f6396adea73d363d2e36ca0aa7cb6937904945e35c0d02ea4d901bc283fc6",
    "night1.pll.json": "312bee1b28b5a99816de8ca237c19865cd2ff839f1540be707f7dff3a336815f",
    "night1.pll.trig.csv": "67941894fae2a5860168aacf0b5ef650ab3a779800ab51d7105705aff4e27f07",
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
        phase, csv = root / f"night{seed}.phase", root / f"night{seed}.csv"
        common = ["--stages", STAGES, "--seed", str(seed)]
        _run(["simulate", "--out", str(night), "--hypnogram-out", str(hyp),
              "--phase-out", str(phase), *common])
        _run(["simulate", "--out", str(csv), *common])
        files = [night, csv, phase]
        for algo in ALGORITHMS:
            log, report = root / f"night{seed}.{algo}.trig.csv", root / f"night{seed}.{algo}.json"
            _run(["track", "--input", str(night), "--out", str(log), "--algorithm", algo])
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
