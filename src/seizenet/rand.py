"""Deterministic random streams.

All randomness in the package flows from one experiment seed through named
sub-streams, so any stage can be re-run in isolation and whole pipelines are
bit-reproducible.  Streams are backed by the counter-based Philox generator,
keyed by a SHA-256 hash of ``(seed, path)``, which makes the mapping from
names to streams stable across platforms and process boundaries.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["Rng"]


class Rng:
    """A named, seeded random stream.

    ``Rng(seed)`` is the root stream; ``rng.child("mask")`` derives an
    independent stream whose output depends only on ``(seed, "mask")``.
    Children of children concatenate their names, e.g. ``fold/3/init``.
    """

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = path
        digest = hashlib.sha256(
            ("%d/%s" % (self.seed, "/".join(path))).encode("utf-8")
        ).digest()
        self._key = int.from_bytes(digest[:16], "little")
        self.gen = np.random.Generator(np.random.Philox(key=self._key))

    def child(self, *names: str | int) -> "Rng":
        """Derive an independent stream named by ``names``."""
        return Rng(self.seed, self.path + tuple(str(n) for n in names))

    # Thin pass-throughs; kept explicit so call sites read as a closed API.
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self.gen.permutation(x)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
