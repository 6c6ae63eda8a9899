"""The functions the benchmark traces are all still called by the program.

``perfbench/tracing.py`` wraps named functions from outside the package;
a name that the program stops calling would only show up as a crashed
``--trace 1`` run.  This test runs one small round under the tracer.
The benchmark also reads grammars without tracing them: ``perfbench``
counts ``slp.rules``, reads ``grammar_depth``, compares grammars with
``==`` and corrupts the last rule in its self-check.  The second test
makes the same reads, so a change to ``Slp`` that breaks them fails here.
"""

import importlib.util
import random
from pathlib import Path

from slpcompress import driver, grammar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_records_a_span():
    tracing = load_tracing()
    rng = random.Random(3)
    data = b"".join(rng.choice([b"a", b"b", b"c"]) * rng.randrange(1, 4) for _ in range(500))
    with tracing.Tracer() as tracer:
        for mode in ("plain", "improved"):
            slp = driver.compress(data, mode=mode).slp
        back = grammar.deserialize(grammar.serialize(slp))
        grammar.expand_ids(back)
    spans = tracer.spans
    assert {span["name"] for span in spans} == {name for _, _, name in tracing.WRAPPED}
    # Stage spans never nest: each sits directly under the driver.
    for span in spans:
        if span["name"] in tracing.STAGES:
            assert spans[span["parent"]]["name"] in ("driver.compress", "driver.run_phase")
    # The tracer puts every original back.
    for owner, attr, _ in tracing.WRAPPED:
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_untraced_benchmark_reads_of_a_grammar():
    rng = random.Random(5)
    data = bytes(rng.randrange(64) for _ in range(3000))
    slp = driver.compress(data, mode="improved").slp
    assert len(slp.rules) == len(list(slp.rules)) > 0
    assert grammar.grammar_depth(slp) >= 1
    text = grammar.serialize(slp)
    back = grammar.deserialize(text)
    assert back == slp
    # The self-check's corruption: reverse the body of the start rule.
    back.rules[-1] = back.rules[-1][::-1]
    assert grammar.serialize(back) != text
    assert back != slp
