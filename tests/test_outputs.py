"""Byte pins of the command-line outputs.

Each case runs one `intersched` command in-process and pins the sha256 of
everything it writes (stdout, then every file under its output directory by
relative name), together with its exit code and stderr. A change meant to
keep the outputs byte-identical leaves every pin alone; a change that moves
an output updates that pin in the same change and says why.

To print the digests of the tree under test, run this file as a script:
`PYTHONPATH=src python tests/test_outputs.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from intersched.cli import main

# name -> (arguments, writes an output tree, sha256)
PINS = {
    "reproduce-seed-42": (["reproduce", "--seed", "42"], True,
        "1182cc029f83b6e7fd2998eea90f937dcf7653d44968fd921b2c24c6cd6afd75"),
    "reproduce-seed-60317": (["reproduce", "--seed", "60317"], True,
        "5f45511b56274f4733b8a455c1be99e44fff44b77ff7a39dd133685d09817800"),
    "reproduce-seed-7": (["reproduce", "--seed", "7"], True,
        "687ce89d03f3c30c04d55c311a13e11302905934b08595cc7e1efa1e8d9f2504"),
    "prodline-average": (["prodline", "--pattern", "average"], True,
        "3dd4f327559fa6fa84d3e92476b37c4f05f0a3139c25bb7dc2197742c3110334"),
    "prodline-worst": (["prodline", "--pattern", "worst"], True,
        "4dc0fae3dbbbe71e798cc8f7b5c8b8fd01eafe64c3fb3c0a760d96124e709b61"),
    "prodline-random": (["prodline", "--pattern", "random"], True,
        "95b756ecba59af575dbd3cc63961126f0bd8e27f00a9dc3ff520e8f23a44475f"),
    "flow-average": (["flow", "--pattern", "average"], False,
        "b8b6cf369d9607d7217d0de308e1e25ece35253956a07e13914ae8bbbaa5bc6d"),
    "flow-worst": (["flow", "--pattern", "worst"], False,
        "33644200103b8813671e8eb628e4363e21f9acf3a1f4cb78c6c76dcf497ad28b"),
    "flow-random": (["flow", "--pattern", "random"], False,
        "775ccb03bd38a6dc40c408b0aaad195be4317bc86ebc251ab21442d26ba28988"),
    "baseline-300": (["baseline", "--vehicles", "300"], False,
        "5d464c8dbf2376f2dee4e95c2152fd7bdd6d2a6174578599fbca7054f4d2ad3a"),
    # lane boundaries: one car per direction, one car in a second lane, and
    # every lane full
    "baseline-2": (["baseline", "--vehicles", "2"], False,
        "f6a80746cf224ce8231b02e146cc7241529f6ab88fe4704ed0deb5708ea82c01"),
    "baseline-78-runs-20": (["baseline", "--vehicles", "78", "--runs", "20"], False,
        "5d463bc028867155aa0966123ec5fa28194ec9cf8b38db5228767819df425b91"),
    "baseline-1444-runs-3": (["baseline", "--vehicles", "1444", "--runs", "3"], False,
        "438ce31cdf7b5b96447789ce9cce93e11c731e1353b85246200c97a9ba59ff41"),
    # where the lane-pair sums change form: exactly one full lane per
    # direction, nine full lanes and one of 20 cars, and one lane a car short
    "baseline-76-runs-5": (["baseline", "--vehicles", "76", "--runs", "5"], False,
        "6633a680516d0a833d536dc0c0094ddf128a64368af0bd159d4b9c2c2c39a548"),
    "baseline-724-runs-5": (["baseline", "--vehicles", "724", "--runs", "5"], False,
        "0052398e80b9310021b42e5a9da73b000da3addb301737c05919014406768a4f"),
    "baseline-1442-runs-3": (["baseline", "--vehicles", "1442", "--runs", "3"], False,
        "e6a29e9e75297d5eb631be8faf5a77636b7b520547c86f0023b255c2a31756f3"),
}


def run_and_digest(argv: list[str], writes_tree: bool, work: Path) -> tuple[int, str, str]:
    """Run one command; return its exit code, stderr and output digest."""
    out_dir = work / "out"
    if writes_tree:
        argv = [*argv, "--out-dir", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    h = hashlib.sha256()

    def part(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)

    # printed paths name the output directory, which differs from run to run
    part(stdout.getvalue().replace(str(out_dir), "<out>").encode())
    if writes_tree:
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            part(path.relative_to(out_dir).as_posix().encode())
            part(path.read_bytes())
    return code, stderr.getvalue(), h.hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_output_matches_its_pin(name, tmp_path):
    argv, writes_tree, digest = PINS[name]
    assert run_and_digest(argv, writes_tree, tmp_path) == (0, "", digest)


if __name__ == "__main__":
    for name, (argv, writes_tree, _) in PINS.items():
        with tempfile.TemporaryDirectory() as work:
            code, err, digest = run_and_digest(argv, writes_tree, Path(work))
        print(f"{name}: exit {code}, stderr {err!r}, {digest}")
