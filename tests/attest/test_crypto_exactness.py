"""The fast RSA kernels against the plain implementations they replaced.

The reference functions below are the textbook versions: Miller–Rabin
with a full-size ``pow`` in every round, and signing as one
``pow(m, d, n)``.  The kernels in :mod:`repro.attest.crypto` must give
the same values *and* draw the same numbers from the seeded stream, so
every key and signature the simulation produces stays byte-identical.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.attest.crypto import (
    _SIEVE_BOUND,
    _SMALL_PRIMES,
    _generate_prime,
    _is_probable_prime,
    _pad_digest,
    generate_keypair,
)
from repro.errors import AttestationError
from repro.sim.rng import SimRng


class CountingRng(SimRng):
    """A stream that counts the draws made from it."""

    def __init__(self, seed: int, label: str = "") -> None:
        super().__init__(seed, label)
        self.draws = 0

    def randint(self, low: int, high: int) -> int:
        self.draws += 1
        return super().randint(low, high)

    def getrandbits(self, bits: int) -> int:
        self.draws += 1
        return super().getrandbits(bits)


def ref_is_probable_prime(n: int, rng: SimRng, rounds: int = 24) -> bool:
    """Miller–Rabin with the full-size ``pow`` in every round."""
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def ref_generate_prime(bits: int, rng: SimRng) -> int:
    if bits < 8:
        raise AttestationError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1
        if ref_is_probable_prime(candidate, rng):
            return candidate


def ref_generate_keypair(rng: SimRng, bits: int = 1024,
                         e: int = 65537) -> tuple[int, int, int, int, int]:
    """``(n, d, p, q, attempts)``; ``attempts`` counts (p, q) draws."""
    half = bits // 2
    attempts = 0
    while True:
        attempts += 1
        p = ref_generate_prime(half, rng)
        q = ref_generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        try:
            d = pow(e, -1, (p - 1) * (q - 1))
        except ValueError:
            continue
        return n, d, p, q, attempts


def _odd_primes_below(bound: int) -> list[int]:
    return [n for n in range(3, bound, 2)
            if all(n % p for p in range(3, math.isqrt(n) + 1, 2))]


#: odd primes the ``_SMALL_PRIMES`` early exit does not catch but the
#: gcd filter does
SIEVED_PRIMES = [p for p in _odd_primes_below(_SIEVE_BOUND)
                 if p > _SMALL_PRIMES[-1]]


def _chernick_factors() -> list[tuple[int, int, int]]:
    """Prime factors of the Carmichael numbers ``(6k+1)(12k+1)(18k+1)``
    whose factors are all prime and above ``_SMALL_PRIMES``: some below
    the sieve bound, some straddling it, some above it."""
    found = []
    for k in range(19, 800):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(ref_is_probable_prime(f, SimRng(0)) for f in factors):
            found.append(factors)
    return found


CHERNICK = _chernick_factors()
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
               *map(math.prod, CHERNICK)]

candidates = st.one_of(
    st.integers(min_value=-3, max_value=20_000),
    st.sampled_from(CARMICHAELS),
    st.tuples(st.sampled_from(SIEVED_PRIMES),
              st.sampled_from(SIEVED_PRIMES)).map(math.prod),
    st.tuples(st.sampled_from(SIEVED_PRIMES),
              st.integers(min_value=2**40, max_value=2**200)).map(
                  lambda pair: pair[0] * (pair[1] | 1)),
    st.integers(min_value=2**60, max_value=2**300),
)


def test_oracle_inputs_cover_the_filter():
    assert len(SIEVED_PRIMES) > 500
    assert any(f[2] < _SIEVE_BOUND for f in CHERNICK)
    assert any(f[0] < _SIEVE_BOUND < f[2] for f in CHERNICK)
    assert any(f[0] > _SIEVE_BOUND for f in CHERNICK)


@settings(max_examples=400, deadline=None)
@given(n=candidates, seed=st.integers(min_value=0, max_value=2**32))
def test_primality_verdict_and_draws_match_reference(n, seed):
    fast, ref = CountingRng(seed, "mr"), CountingRng(seed, "mr")
    assert _is_probable_prime(n, fast) == ref_is_probable_prime(n, ref)
    assert fast.draws == ref.draws
    assert fast.raw_random().getstate() == ref.raw_random().getstate()


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=8, max_value=160),
       seed=st.integers(min_value=0, max_value=2**32))
def test_generated_prime_and_stream_match_reference(bits, seed):
    fast, ref = CountingRng(seed, "prime"), CountingRng(seed, "prime")
    assert _generate_prime(bits, fast) == ref_generate_prime(bits, ref)
    assert fast.draws == ref.draws
    assert fast.raw_random().getstate() == ref.raw_random().getstate()


def test_keygen_examples_hit_the_bit_length_retry():
    *_, attempts = ref_generate_keypair(SimRng(2, "keygen"), 768)
    assert attempts > 1


@settings(max_examples=4, deadline=None)
@given(bits=st.sampled_from((768, 769, 770)),
       seed=st.integers(min_value=0, max_value=2**32))
@example(bits=768, seed=2)
def test_keypair_and_stream_match_reference(bits, seed):
    fast, ref = CountingRng(seed, "keygen"), CountingRng(seed, "keygen")
    pair = generate_keypair(fast, bits)
    n, d, p, q, _ = ref_generate_keypair(ref, bits)
    assert (pair.public.n, pair.public.e, pair.d, pair.p, pair.q) == (
        n, 65537, d, p, q)
    assert fast.draws == ref.draws
    assert fast.raw_random().getstate() == ref.raw_random().getstate()


@pytest.fixture(scope="module")
def keypairs():
    return [generate_keypair(SimRng(seed, "crt"), bits)
            for seed, bits in ((0, 768), (1, 769), (2, 1024))]


@settings(max_examples=60, deadline=None)
@given(index=st.integers(min_value=0, max_value=2),
       message=st.binary(max_size=300))
def test_crt_signature_equals_plain_pow(keypairs, index, message):
    pair = keypairs[index]
    k = pair.public.byte_length
    padded = int.from_bytes(_pad_digest(message, k), "big")
    plain = pow(padded, pair.d, pair.public.n).to_bytes(k, "big")
    assert pair.sign(message) == plain


def test_repr_hides_the_private_primes(keypairs):
    pair = keypairs[0]
    text = repr(pair)
    for secret in (pair.d, pair.p, pair.q):
        assert str(secret) not in text
        assert f"{secret:x}" not in text
