"""Golden pins: the frames of a fixed set of wire sessions, the committed
ids and round traces of a fixed set of in-process sessions, and the files
``specsteer run`` writes on the shipped config, bit for bit.

The session set lives once, in ``tools/frame_digest.py``; this test loads
that script by path and checks its two sha256s.  A change that moves a pin
on purpose re-pins it here and says why."""

from __future__ import annotations

import hashlib

from specsteer.cli import main

from conftest import load_tool

FRAME_DIGEST = "0cf4f0f465d76c6db33c6a2ca36c05e0c5a8646187c2ea7967b458684630546e"
TRACE_DIGEST = "90baaac0086af195e780ec660f5d6422e77eb7979272cd57c0b2c07a20665241"
# ``specsteer run``'s trace.csv rows under the hash header, and its
# summary.json without the config_hash line: the hash covers the output
# directory, which differs from run to run.
RUN_TRACE_ROWS = "aa50416c14188c88088f67ec2c3643addeb684e84faabd1c81c66731553f3a00"
RUN_SUMMARY = "ed52a282fb7a58fdd34d0a9b7f2bc42b9fed49a14b04fb09a0fbb4eeaefda6b9"

frame_digest = load_tool("frame_digest")


def test_frame_digest():
    assert frame_digest.digest() == (FRAME_DIGEST, 241, 8437)


def test_trace_digest():
    assert frame_digest.trace_digest() == (TRACE_DIGEST, 312, 2018)


def test_cli_run_outputs(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "run"]) == 0
    rows = (tmp_path / "trace.csv").read_bytes().split(b"\n", 1)[1]
    summary = b"".join(
        line for line in (tmp_path / "summary.json").read_bytes().splitlines(keepends=True)
        if not line.lstrip().startswith(b'"config_hash"'))
    assert hashlib.sha256(rows).hexdigest() == RUN_TRACE_ROWS
    assert hashlib.sha256(summary).hexdigest() == RUN_SUMMARY
