"""Pure-Python RSA with SHA-384 signatures.

This is a *functional* implementation — keys are generated with
Miller–Rabin primality testing, signatures really are modular
exponentiations, and verification fails on tampered messages — sized
for simulation use (default 1024-bit keys keep tests fast; the
infrastructure supports larger).  It is **not** hardened production
cryptography (no constant-time arithmetic, no blinding); the point is
to exercise real signing/verification code paths in the attestation
protocols.

The signature scheme follows the PKCS#1 v1.5 shape: the SHA-384
digest is wrapped in a DER-like prefix, padded with ``0x01 0xFF..FF
0x00``, and exponentiated with the private key.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import math

from repro.errors import AttestationError
from repro.sim.rng import SimRng

# DigestInfo-style prefix identifying SHA-384 (simplified DER header).
_SHA384_PREFIX = bytes.fromhex("3041300d060960864801650304020205000430")

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)

#: exclusive bound on the primes in :data:`_SIEVE_PRODUCT`
_SIEVE_BOUND = 4096


def _odd_prime_product(bound: int) -> int:
    """The product of the odd primes below ``bound``."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return math.prod(p for p in range(3, bound, 2) if sieve[p])


#: product of the odd primes below :data:`_SIEVE_BOUND` (~5,800 bits,
#: well under a millisecond to build at import)
_SIEVE_PRODUCT = _odd_prime_product(_SIEVE_BOUND)


def _is_probable_prime(n: int, rng: SimRng, rounds: int = 24) -> bool:
    """Miller–Rabin primality test.

    ``g = gcd(n, P)`` collects the small odd prime factors of ``n``.
    A round whose base ``a`` fails Fermat's test modulo ``g`` returns
    False without the full-size ``pow``: a strong liar ``a`` has
    ``a^(n-1) = 1 (mod n)``, hence modulo every divisor of ``n``, so
    the full round would have returned False too.  Each round still
    draws its ``a``, so the verdict and the stream's draws are those of
    the plain test.
    """
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
    g = math.gcd(n, _SIEVE_PRODUCT)
    # write n - 1 = d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        if g > 1 and pow(a % g, n - 1, g) != 1:
            return False
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


def _generate_prime(bits: int, rng: SimRng) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise AttestationError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1   # top bit + odd
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def fingerprint(self) -> str:
        """Stable hex identifier of this key."""
        material = f"{self.n:x}:{self.e:x}".encode()
        return hashlib.sha256(material).hexdigest()[:24]

    def verify(self, message: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is a valid signature of ``message``."""
        if len(signature) != self.byte_length:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        expected = int.from_bytes(_pad_digest(message, self.byte_length), "big")
        return recovered == expected


@dataclass(frozen=True, repr=False)
class RsaKeyPair:
    """An RSA key pair; keep the private exponent and primes private."""

    public: RsaPublicKey
    d: int
    #: the prime factors of ``public.n``
    p: int
    q: int

    def __repr__(self) -> str:
        # never include d, p or q: a stray repr in a log line, exception
        # message, or journal record must not leak the private half
        return (f"RsaKeyPair(fingerprint={self.public.fingerprint()}, "
                f"bits={self.public.bits})")

    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5-style SHA-384 signature of ``message``.

        ``padded^d mod n`` by the Chinese remainder theorem: two
        half-size exponentiations modulo ``p`` and ``q`` and Garner's
        recombination give the same integer, at about a quarter of the
        cost.
        """
        k = self.public.byte_length
        padded = int.from_bytes(_pad_digest(message, k), "big")
        p, q = self.p, self.q
        m_p = pow(padded, self.d % (p - 1), p)
        m_q = pow(padded, self.d % (q - 1), q)
        h = (m_p - m_q) * pow(q, -1, p) % p
        return (m_q + h * q).to_bytes(k, "big")


def _pad_digest(message: bytes, k: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of the SHA-384 digest of ``message``."""
    digest = hashlib.sha384(message).digest()
    t = _SHA384_PREFIX + digest
    if k < len(t) + 11:
        raise AttestationError(
            f"modulus too small ({k} bytes) for SHA-384 signatures"
        )
    padding = b"\xff" * (k - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def generate_keypair(rng: SimRng, bits: int = 1024, e: int = 65537) -> RsaKeyPair:
    """Generate an RSA key pair from a deterministic stream.

    Parameters
    ----------
    rng:
        Seeded stream; the same stream state yields the same key.
    bits:
        Modulus size.  1024 keeps simulation tests fast; use 2048+
        where realism matters more than speed.
    e:
        Public exponent.
    """
    if bits < 768:
        # SHA-384 PKCS#1 v1.5 padding needs >= 78 modulus bytes
        raise AttestationError(f"refusing to generate {bits}-bit RSA keys (< 768)")
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue   # e not invertible mod phi; rare, retry
        return RsaKeyPair(public=RsaPublicKey(n=n, e=e), d=d, p=p, q=q)


#: Process-level cache for :func:`derived_keypair`.  Keyed by the
#: parent stream's (seed, label) plus the child label and key size —
#: which fully determine the generated key, because child streams are
#: label-derived (fresh state) rather than split off the parent's
#: consumed state.
_KEYPAIR_CACHE: dict[tuple[int, str, str, int], RsaKeyPair] = {}


def derived_keypair(parent: SimRng, label: str,
                    bits: int = 1024) -> RsaKeyPair:
    """``generate_keypair(parent.child(label), bits)``, memoized.

    Miller-Rabin prime generation in pure Python is the wall-clock
    hot spot of attestation infrastructure bring-up; since the result
    is a pure function of ``(parent.seed, parent.label, label, bits)``
    it is cached per process, so per-trial infrastructure rebuilds
    (the runner pipeline's purity requirement) stop paying for keygen.
    """
    key = (parent.seed, parent.label, label, bits)
    cached = _KEYPAIR_CACHE.get(key)
    if cached is None:
        cached = generate_keypair(parent.child(label), bits)
        # Pure-function memo: the key fully determines the value, so
        # hitting the cache never couples one trial to another.
        _KEYPAIR_CACHE[key] = cached  # confbench: allow[purity]
    return cached


# Virtual-time cost constants for the attestation experiment.  Real
# hardware does RSA/ECDSA far faster than pure Python, so the bench
# charges these calibrated figures instead of wall-clock time.
SIGN_COST_NS = 1_350_000.0      # one signature (~1.35 ms, SW crypto)
VERIFY_COST_NS = 110_000.0      # one verification (~0.11 ms, e = 65537)
DIGEST_COST_PER_BYTE_NS = 3.1   # hashing throughput
