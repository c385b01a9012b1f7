"""Golden digests of the certificates the three constructions write.

Every case embeds one poset with embed_with_branch and serializes the
certificate with write_embedding.  The texts are grouped by the branch
taken and hashed in case order, so a change to any certificate byte, or
a poset moving to another branch, fails here.  The digests were taken
before the constructions were rewritten as up-set columns and must
never be re-taken to make a refactor pass.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

from posetcube import Poset, build_universal, embed_with_branch, random_poset, write_embedding
from helpers import fence_poset

GOLDEN_COUNTS = {"folklore": 10, "chain-cover": 37, "antichain-labels": 48}
GOLDEN_DIGESTS = {
    "folklore": "4e0236ec24ca50f3b2d82c936a02659258a6cd3c1c62ec63c380a6bc622d558b",
    "chain-cover": "381b951c3ab7752e8e5fe283d81387b98bce843c1b4490effd919f4dba7a8ef0",
    "antichain-labels": "4cde5d06bd0409c4e01f7f92b8b92413b002a8e935181782fe8c64b8e2065871",
}


def golden_cases():
    """(poset, budget) pairs; budget None is build_universal's default."""
    for n in range(1, 41):
        for k, q in enumerate((0.3, min(1.0, 2 / n))):
            yield random_poset(n, q, 100 * n + k), None
    for n in (12, 20):
        for a in (1, 2, -(-n // 3) + 1):
            for k, q in enumerate((0.3, 2 / n)):
                yield random_poset(n, q, 1000 * n + 10 * a + k), a
    yield Poset.chain(30), None
    yield Poset.antichain(30), None
    yield fence_poset(4), None


def branch_digests() -> tuple[Counter, dict[str, str]]:
    counts: Counter = Counter()
    hashes = defaultdict(hashlib.sha256)
    for p, a in golden_cases():
        emb, branch = embed_with_branch(build_universal(p.n, a), p)
        counts[branch] += 1
        hashes[branch].update(write_embedding(emb).encode())
    return counts, {branch: h.hexdigest() for branch, h in hashes.items()}


def test_certificates_match_golden_digests():
    counts, digests = branch_digests()
    assert all(counts[branch] for branch in GOLDEN_COUNTS)  # every branch is pinned
    assert dict(counts) == GOLDEN_COUNTS
    assert digests == GOLDEN_DIGESTS
