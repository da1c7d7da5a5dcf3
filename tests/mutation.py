"""Byte mutations for the fuzz tests of stored data.

`MUTATIONS` draws a list of one to four mutations, each (kind, position,
argument): flip bits of a byte, overwrite four bytes with a u32, insert
bytes, delete bytes, or cut the data short. `mutate` applies them in
order; a position past the end wraps round, so any position is valid for
data of any length.
"""

from __future__ import annotations

from hypothesis import strategies as st

_position = st.integers(0, 1 << 16)
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("xor"), _position, st.integers(1, 255)),
        st.tuples(st.just("u32"), _position, st.integers(0, (1 << 32) - 1)),
        st.tuples(st.just("insert"), _position, st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("delete"), _position, st.integers(1, 16)),
        st.tuples(st.just("truncate"), _position, st.just(None)),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, pos, arg in mutations:
        pos %= len(out) + 1
        if kind == "xor" and pos < len(out):
            out[pos] ^= arg
        elif kind == "u32":
            out[pos:pos + 4] = arg.to_bytes(4, "little")
        elif kind == "insert":
            out[pos:pos] = arg
        elif kind == "delete":
            del out[pos:pos + arg]
        elif kind == "truncate":
            del out[pos:]
    return bytes(out)
