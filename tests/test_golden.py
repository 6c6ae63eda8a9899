"""Golden grammars: the serialized output on fixed seeded inputs is pinned.

Performance work on the compressor must leave every output grammar
byte-identical.  The hashes below are SHA-256 digests of
``serialize(compress(data, mode).slp)``; an input generator or hash that
changes means the compressor's output changed.

``REFERENCE_ORDER_GOLDEN`` pins the same runs with the block rules
numbered letter by letter (``reference_build_block_rules``), the order
before block rules were emitted level by level.  Only rule ids differ
between the two orders, which ``test_block_order.py`` checks.
"""

import hashlib
import random

import pytest

from helpers import compress_in_reference_order
from slpcompress import compress, expand, serialize

SIZE = 2**14


def random_bytes(seed, size=SIZE):
    rng = random.Random(seed)
    return bytes(rng.randrange(64) for _ in range(size))


def revised_text(seed, size=SIZE):
    """Revisions of one lowercase text, a few point edits per revision."""
    rng = random.Random(seed)
    doc = [rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(1024)]
    out = []
    while len(out) < size:
        for _ in range(3):
            doc[rng.randrange(len(doc))] = rng.choice("abcdefghijklmnopqrstuvwxyz ")
        out.extend(doc)
    return "".join(out[:size]).encode()


def token_runs(seed, size=SIZE):
    """Skewed 32-bit tokens in runs, so blocks are frequent and long."""
    rng = random.Random(seed)
    pool = [rng.randrange(2**32) for _ in range(300)]
    out = []
    while len(out) < size:
        tok = pool[min(int(rng.expovariate(0.05)), len(pool) - 1)]
        out.extend([tok] * (1 + int(rng.expovariate(0.4))))
    return out[:size]


def zipf_runs(seed):
    """Several thousand distinct Zipf-drawn 32-bit tokens in geometric runs.

    Most runs are short; one in fifty is up to 400 long, so many letters
    have blocks of several lengths with wide gaps between them.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < SIZE:
        rank = min(int(rng.paretovariate(0.1)), 2**40)
        tok = rank * 2654435761 % 2**32
        if rng.random() < 0.02:
            run = min(2 + int(rng.expovariate(1 / 60)), 400)
        else:
            run = 1 + int(rng.expovariate(1.0))
        out.extend([tok] * run)
    return out[:SIZE]


def wide_tokens(seed):
    """Mostly distinct tokens: a wide alphabet and few repeats."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(SIZE)]


GOLDEN = {
    ("random_bytes", 1, "plain"):
        "14635569042ff84ee30cc4c1b8ecfef823c2ec871632d02e0363644f37905ccc",
    ("random_bytes", 1, "improved"):
        "8bcee35ac6195d7c3b2849922fd63400c32098fa992449a1f8feef0efbff87a4",
    ("revised_text", 2, "plain"):
        "bef6938ca9244edbdb2d67d5167cbd04aed7f28f767e48932854e69b7cd4d45f",
    ("revised_text", 2, "improved"):
        "48f29745dadfd1fe4682fb9647a86fef68f82682fc167faef6b63f044d959b10",
    ("token_runs", 3, "plain"):
        "a41a1926c89a405ec58137e2f226fb7a9c5d05a62295a4d9f3cd5c2be2b01ee2",
    ("token_runs", 3, "improved"):
        "cdd1556f2111bb3b8cf2673e5ebc17f272625fc17d826c4f660f8fc9e81335f9",
    ("zipf_runs", 5, "plain"):
        "fed928e0ac3e3980929e29603808f1f2d7762bcdd6f839578ff6dc241a2e7163",
    ("zipf_runs", 5, "improved"):
        "1ce859ea107995978f7a35555f4c59b5cd1773b67c5f98a955519ce307e0a659",
    ("wide_tokens", 4, "plain"):
        "1836133f51569e3cc8e3d926840a64d60b30cdc267949bb5c921aa339958d332",
    ("wide_tokens", 4, "improved"):
        "c64ca5219ef57af8e2cf0d4e633ae6341fda2ff37cd170558902a2d96f6fb568",
}

REFERENCE_ORDER_GOLDEN = {
    ("random_bytes", 1, "plain"):
        "517eef405a44e014a7080fd46ae7f3c8268f3da0617f8b91248a028f30a3993e",
    ("random_bytes", 1, "improved"):
        "6a3dc1476f62c4f6beab0d5db27ae80dd23afaf3aa18c6000882518b3c546f32",
    ("revised_text", 2, "plain"):
        "73fda5e03d95a2666476257c1e97abd3a682bd028337f846600f9b27e8064c76",
    ("revised_text", 2, "improved"):
        "321a85820731b8a201dc259dc62b3be7557615f7fad42ca64340a4a42aec0586",
    ("token_runs", 3, "plain"):
        "bdd3989ab4df6149e30551d1adbd763a5f7f7fdfc5b44af14c3076d3f493a63c",
    ("token_runs", 3, "improved"):
        "8ab4c482a5c2c4d0bd7be820764a9cfad08e5b71f00d67736c8d75553374a960",
    ("zipf_runs", 5, "plain"):
        "b911a9aae96a31c2cc4f7e270053922498b6e6a0f104c58637403acf26b1eba4",
    ("zipf_runs", 5, "improved"):
        "5c6cceb3487424a0a806f3997c18fc275002f3a4354710ab026a071cd2095d60",
    ("wide_tokens", 4, "plain"):
        "1836133f51569e3cc8e3d926840a64d60b30cdc267949bb5c921aa339958d332",
    ("wide_tokens", 4, "improved"):
        "c64ca5219ef57af8e2cf0d4e633ae6341fda2ff37cd170558902a2d96f6fb568",
}


@pytest.mark.parametrize("gen,seed,mode", sorted(GOLDEN))
def test_golden_grammar(gen, seed, mode):
    data = globals()[gen](seed)
    slp = compress(data, mode=mode).slp
    assert expand(slp) == data
    digest = hashlib.sha256(serialize(slp).encode()).hexdigest()
    assert digest == GOLDEN[(gen, seed, mode)]


@pytest.mark.parametrize("gen,seed,mode", sorted(REFERENCE_ORDER_GOLDEN))
def test_reference_order_golden_grammar(gen, seed, mode):
    data = globals()[gen](seed)
    slp = compress_in_reference_order(data, mode).slp
    assert expand(slp) == data
    digest = hashlib.sha256(serialize(slp).encode()).hexdigest()
    assert digest == REFERENCE_ORDER_GOLDEN[(gen, seed, mode)]
