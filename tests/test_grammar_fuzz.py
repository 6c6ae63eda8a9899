"""Hypothesis fuzz of the ways a grammar comes in, against the scalar oracles.

The inputs are valid grammars, from ``random_slp`` and from compressions of
the golden corpus's inputs, and their mutations: a changed cell, a zero or
negative count, a float, bool or object value or dtype, an integer of 2**63
or more, a bad start symbol, and truncated or bit-flipped ``SLP 1`` text.
``Slp.from_arrays`` must raise ``GrammarError`` exactly when
``reference_check_structure`` does, ``deserialize`` must agree with
``reference_deserialize``, and CLI ``stats`` must exit 2 on every file it
cannot load, never with a traceback.  The runs are derandomized, with fixed
example budgets of a few seconds in all.
"""

import contextlib
import functools
import io
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
import test_golden
from helpers import (
    reference_check_structure,
    reference_deserialize,
    reference_expand_ids,
    reference_symbol_lengths,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_grammar import random_slp

from slpcompress.cli import EXIT_BAD_INPUT, EXIT_OK, main
from slpcompress.driver import compress
from slpcompress.grammar import (
    ExpansionOverflow,
    GrammarError,
    Slp,
    deserialize,
    expand_ids,
    serialize,
    symbol_lengths,
)


def fuzz(examples):
    return settings(
        max_examples=examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def parts_of(slp):
    """The raw parts ``Slp.from_arrays`` takes, as lists of Python ints."""
    return {
        "kind": slp.kind,
        "terminals": list(slp.terminals),
        "counts": slp.counts.tolist(),
        "flat": slp.flat.tolist(),
        "start": slp.start,
    }


@functools.cache
def golden_grammars():
    """Grammars of the first 1024 symbols of each golden input, both modes."""
    return [
        compress(getattr(test_golden, gen)(seed)[:1024], mode=mode).slp
        for gen, seed, mode in sorted(test_golden.GOLDEN)
    ]


@st.composite
def valid_parts(draw):
    if draw(st.integers(0, 9)) == 0:
        return parts_of(draw(st.sampled_from(golden_grammars())))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    slp = random_slp(rng, kind=draw(st.sampled_from(["bytes", "tokens"])), max_rules=12)
    if draw(st.booleans()):
        slp.start = None
    return parts_of(slp)


# Values that are no int64 integer: floats, bools, other objects, and
# integers of 2**63 or more (or below -2**63).
NOT_INT64 = st.sampled_from(
    [0.0, 1.0, 0.5, float("nan"), np.float64(1.0), True, False, np.True_, np.False_, "1", None,
     2**63, 2**64, 10**30, -(2**63) - 1]
)


@st.composite
def mutated_parts(draw):
    """A valid grammar's parts, left alone or with one mutation."""
    parts = draw(valid_parts())
    field = draw(st.sampled_from(["terminals", "counts", "flat"]))
    values = parts[field]
    symbols = len(parts["terminals"]) + len(parts["counts"])
    how = draw(st.sampled_from(["none", "cell", "count", "value", "dtype", "uint64", "start"]))
    if how == "cell" and values:
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.one_of(st.integers(-3, symbols + 3), st.integers(-(2**63), 2**63 - 1))
        )
    elif how == "count" and parts["counts"]:
        counts = parts["counts"]
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(-(2**63), 0))
    elif how == "value" and values:
        values[draw(st.integers(0, len(values) - 1))] = draw(NOT_INT64)
    elif how == "dtype":
        parts[field] = np.asarray(values, dtype=draw(st.sampled_from([np.float64, np.bool_, object])))
    elif how == "uint64" and values:
        wide = np.asarray(values, dtype=np.uint64)
        wide[draw(st.integers(0, len(values) - 1))] = draw(st.integers(2**63, 2**64 - 1))
        parts[field] = wide
    elif how == "start":
        parts["start"] = draw(
            st.one_of(
                st.sampled_from([-1, symbols, symbols + 1, 1.0, True, np.True_, "0", np.float64(0)]),
                st.integers(-(2**70), 2**70),
            )
        )
    if draw(st.booleans()):  # integer lists may come as int64 arrays
        for name in ("terminals", "counts", "flat"):
            if isinstance(parts[name], list) and all(type(v) is int and abs(v) < 2**63 for v in parts[name]):
                parts[name] = np.array(parts[name], dtype=np.int64)
    return parts


def oracle_error(check, *args):
    try:
        check(*args)
    except GrammarError as error:
        return error
    return None


@fuzz(400)
@given(mutated_parts())
def test_from_arrays_raises_exactly_when_the_oracle_does(parts):
    error = oracle_error(reference_check_structure, *parts.values())
    if error is not None:
        with pytest.raises(GrammarError):
            Slp.from_arrays(**parts)
        return
    slp = Slp.from_arrays(**parts)
    assert parts_of(slp) == {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in parts.items()
    }
    try:
        lengths = reference_symbol_lengths(slp)
    except ExpansionOverflow:
        with pytest.raises(ExpansionOverflow):
            symbol_lengths(slp)
        return
    assert symbol_lengths(slp).tolist() == lengths
    if slp.start is not None and lengths[slp.start] <= 10**4:
        assert expand_ids(slp).tolist() == reference_expand_ids(slp).tolist()
    text = serialize(slp)
    assert deserialize(text) == reference_deserialize(text) == slp


@st.composite
def grammar_files(draw):
    """The ``SLP 1`` bytes of a valid grammar, whole, truncated or bit-flipped."""
    data = bytearray(serialize(Slp.from_arrays(**draw(valid_parts()))).encode("ascii"))
    how = draw(st.sampled_from(["whole", "truncate", "flip", "flip"]))
    if how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif how == "flip":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


def read_as_load_does(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


@fuzz(400)
@given(grammar_files())
def test_deserialize_agrees_with_the_reference(data):
    text = read_as_load_does(data)
    error = oracle_error(reference_deserialize, text)
    if error is not None:
        with pytest.raises(GrammarError):
            deserialize(text)
    else:
        assert deserialize(text) == reference_deserialize(text)


@fuzz(40)
@given(grammar_files())
def test_cli_stats_exits_2_on_every_file_it_cannot_load(data):
    loads = oracle_error(reference_deserialize, read_as_load_does(data)) is None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.slp"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["stats", str(path)])
    assert code == (EXIT_OK if loads else EXIT_BAD_INPUT)
    if not loads:
        assert err.getvalue().startswith("error: ")
