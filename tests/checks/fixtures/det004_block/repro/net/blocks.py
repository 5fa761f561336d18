"""Seeded DET004 bug: a block draw on a receiver the taint engine cannot
trace to a named stream.  The marked line must yield exactly one
finding; the block draw on the annotated parameter must not.
"""

from repro.des.rng import RandomStream


def untraceable_block(gen) -> list:
    return gen.uniforms(64)  # E4: receiver not traceable to a stream


def owned_block(stream: RandomStream) -> list:
    return stream.uniforms(64)  # fine: annotated parameter
