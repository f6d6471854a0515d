"""Golden pins: the frames of a fixed set of wire sessions, bit for bit.

The session set lives once, in ``tools/frame_digest.py``; this test loads
that script by path and checks its sha256.  A change that moves a pin on
purpose re-pins it here and says why."""

from __future__ import annotations

import importlib.util
from pathlib import Path

FRAME_DIGEST = "0cf4f0f465d76c6db33c6a2ca36c05e0c5a8646187c2ea7967b458684630546e"


def test_frame_digest():
    path = Path(__file__).resolve().parents[1] / "tools" / "frame_digest.py"
    spec = importlib.util.spec_from_file_location("frame_digest", path)
    frame_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frame_digest)
    assert frame_digest.digest() == (FRAME_DIGEST, 241, 8437)
