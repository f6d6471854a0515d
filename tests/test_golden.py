"""Golden pins: the frames of a fixed set of wire sessions, and the
committed ids and round traces of a fixed set of in-process sessions, bit
for bit.

The session set lives once, in ``tools/frame_digest.py``; this test loads
that script by path and checks its two sha256s.  A change that moves a pin
on purpose re-pins it here and says why."""

from __future__ import annotations

from conftest import load_tool

FRAME_DIGEST = "0cf4f0f465d76c6db33c6a2ca36c05e0c5a8646187c2ea7967b458684630546e"
TRACE_DIGEST = "90baaac0086af195e780ec660f5d6422e77eb7979272cd57c0b2c07a20665241"

frame_digest = load_tool("frame_digest")


def test_frame_digest():
    assert frame_digest.digest() == (FRAME_DIGEST, 241, 8437)


def test_trace_digest():
    assert frame_digest.trace_digest() == (TRACE_DIGEST, 312, 2018)
