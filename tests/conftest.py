"""Shared instance and code builders for the test suite."""

import itertools
import random

import numpy as np
import pytest

from secix import (
    AccessStructure,
    Instance,
    LinearCode,
    Receiver,
    TableCode,
    check_decodability,
    is_prime,
)
from secix.gf import MAX_MODULUS

# the largest prime modulus the int64 bound allows
WIDEST_Q = max(n for n in range(MAX_MODULUS - 100, MAX_MODULUS + 1) if is_prime(n))


def crossed_pairs_instance(q: int) -> Instance:
    """Four receivers, each wanting its own message: 1 and 2 hold each
    other's messages, 3 and 4 hold overlapping pairs.  The classic
    demonstration that security is not monotone in the access set."""
    return Instance(
        q,
        4,
        (
            Receiver({2}, {1}),
            Receiver({1}, {2}),
            Receiver({2, 4}, {3}),
            Receiver({2, 3}, {4}),
        ),
    )


def disjoint_sum_code(q: int) -> LinearCode:
    """[x1+x2, x3+x4]"""
    return LinearCode(q, [[1, 0], [1, 0], [0, 1], [0, 1]])


def overlapping_sum_code(q: int) -> LinearCode:
    """[x1+x2, x2+x3+x4]"""
    return LinearCode(q, [[1, 0], [1, 1], [0, 1], [0, 1]])


def table_copy(code: LinearCode) -> TableCode:
    """The same code as an explicit table, key vectors numbered in
    lexicographic order: `check_security` enumerates its joint states
    where it ranks the linear code's rows."""
    keys = list(itertools.product(range(code.q), repeat=code.key_dim))
    table = {(x, i): code.encode(x, y or None)
             for x in itertools.product(range(code.q), repeat=code.m) for i, y in enumerate(keys)}
    return TableCode(code.q, code.m, code.length, code.key_count, table)


def unwanted_key_instance(q: int = 2) -> Instance:
    """Two messages, one receiver knowing 2 and wanting 1; message 2 is
    wanted by nobody and can only serve as a key."""
    return Instance(q, 2, (Receiver({2}, {1}),))


def known_want_instance() -> Instance:
    """q = 5, m = 3: receiver 1 knows x3 and wants x1 and x3, receiver 2
    knows x1 and x3 and wants x2.  Against the access set {1}, receiver 1
    reads x1 off the clear part and lacks nothing outside it."""
    return Instance(5, 3, (Receiver({3}, {1, 3}), Receiver({1, 3}, {2})))


def complementary_instance(q: int, m: int) -> Instance:
    """Every receiver knows all messages but one and wants that one."""
    full = set(range(1, m + 1))
    return Instance(q, m, tuple(Receiver(full - {i}, {i}) for i in range(1, m + 1)))


def ring_instance(q: int, m: int) -> Instance:
    """Receiver i knows every message but i, i + 1 and i + 2 (mod m) and
    wants i: its least side information is m - 3."""
    return Instance(q, m, tuple(
        Receiver({j for j in range(1, m + 1) if (j - i) % m > 2}, {i}) for i in range(1, m + 1)
    ))


def random_instance(rng: random.Random, m: int, q: int, receivers: int | None = None) -> Instance:
    """Random normalized instance: every receiver knows at least one and
    at most m-1 messages, and wants something it lacks."""
    count = receivers if receivers is not None else rng.randint(2, 4)
    recs = []
    for _ in range(count):
        k_size = rng.randint(1, m - 1)
        knows = set(rng.sample(range(1, m + 1), k_size))
        outside = [j for j in range(1, m + 1) if j not in knows]
        wants = {rng.choice(outside)}
        for j in range(1, m + 1):
            if j not in knows and rng.random() < 0.3:
                wants.add(j)
        recs.append(Receiver(knows, wants))
    return Instance(q, m, tuple(recs))


def random_decodable_code(rng: random.Random, inst: Instance, max_tries: int = 200) -> LinearCode:
    """Random square generator, resampled until every receiver decodes."""
    for _ in range(max_tries):
        data = np.array(
            [rng.randrange(inst.q) for _ in range(inst.m * inst.m)], dtype=np.int64
        ).reshape(inst.m, inst.m)
        code = LinearCode(inst.q, data)
        if all(check_decodability(code, inst)):
            return code
    raise AssertionError("no decodable random code found (seed/search space too tight)")


@pytest.fixture
def crossed2():
    return crossed_pairs_instance(2)


@pytest.fixture
def keyed2():
    return unwanted_key_instance(2)


def empty_access() -> AccessStructure:
    return AccessStructure.explicit([[]])
