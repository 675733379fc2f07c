"""Tests for the cryptography substrate: primes, RSA, hashing, key store."""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    MAX_TARGET,
    difficulty_to_target,
    hash_to_int,
    meets_target,
    sha256_hex,
)
from repro.crypto.keystore import KeyStore, derive_key_pair
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import RSAKeyPair, rsa_sign, rsa_verify
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioMatrix, ScenarioSpec
from repro.store.records import history_to_payload
from repro.systems.registry import get_system
from repro.utils.rng import new_rng


def _private_key(pair: RSAKeyPair) -> tuple[int, int]:
    """The plain ``(n, d)`` key ``rsa_sign`` takes."""
    return (pair.modulus, pair.private_exponent)


class TestPrimes:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, 101, 7919, 104729])
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("c", [0, 1, 4, 9, 15, 100, 561, 1105, 7917, 104730])
    def test_known_composites(self, c):
        assert not is_probable_prime(c)

    def test_carmichael_numbers_detected(self):
        # Carmichael numbers fool Fermat tests but not Miller-Rabin.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        # 2^61 - 1 is a Mersenne prime.
        assert is_probable_prime((1 << 61) - 1)

    def test_generate_prime_bit_length(self):
        rng = new_rng(0, "prime")
        for bits in (16, 32, 64):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_generate_prime_rejects_small_bits(self):
        with pytest.raises(ValueError):
            generate_prime(4, new_rng(0, "prime"))

    def test_generate_prime_is_odd(self):
        p = generate_prime(32, new_rng(1, "prime"))
        assert p % 2 == 1

    @pytest.mark.ledger
    @pytest.mark.parametrize("bits", [16, 17, 61, 128, 129])
    def test_candidate_assembly_matches_per_bit_reference(self, bits):
        """The packbits assembly consumes the same draw as the per-bit loop."""

        def reference_prime(rng):
            while True:
                candidate = 0
                for bit in rng.integers(0, 2, size=bits, dtype=np.int64):
                    candidate = (candidate << 1) | int(bit)
                candidate |= (1 << (bits - 1)) | 1
                if is_probable_prime(candidate, rng=rng):
                    return candidate

        for seed in range(5):
            fast, ref = new_rng(seed, "prime-ref"), new_rng(seed, "prime-ref")
            assert generate_prime(bits, fast) == reference_prime(ref)
            # Same stream position afterwards, so later keys are unchanged too.
            assert fast.integers(0, 2**62) == ref.integers(0, 2**62)


class TestRSA:
    @pytest.fixture(scope="class")
    def keypair(self):
        return RSAKeyPair.generate(new_rng(0, "rsa"), bits=128)

    def test_keypair_reproducible(self):
        a = RSAKeyPair.generate(new_rng(5, "rsa"), bits=64)
        b = RSAKeyPair.generate(new_rng(5, "rsa"), bits=64)
        assert a.modulus == b.modulus

    def test_sign_verify_roundtrip(self, keypair):
        msg = b"gradient upload for round 3"
        sig = rsa_sign(msg, _private_key(keypair))
        assert rsa_verify(msg, sig, keypair.public_key)

    def test_verify_rejects_tampered_message(self, keypair):
        sig = rsa_sign(b"honest", _private_key(keypair))
        assert not rsa_verify(b"forged", sig, keypair.public_key)

    def test_verify_rejects_tampered_signature(self, keypair):
        sig = rsa_sign(b"honest", _private_key(keypair))
        assert not rsa_verify(b"honest", sig + 1, keypair.public_key)

    @pytest.mark.parametrize("k", [1, -1, 7])
    def test_verify_rejects_out_of_range_signature(self, keypair, k):
        # sig + k*n is congruent to sig: without the range check one upload
        # would have unboundedly many valid signatures.
        sig = rsa_sign(b"honest", _private_key(keypair))
        assert rsa_verify(b"honest", sig, keypair.public_key)
        assert not rsa_verify(b"honest", sig + k * keypair.modulus, keypair.public_key)

    @pytest.mark.parametrize("bogus", [True, 1.0, np.int64(1), "1", None])
    def test_verify_rejects_non_int_signature(self, bogus):
        # A modulus one below the digest makes H(m) mod n == 1, which the
        # integer 1 signs under any exponent — so only the type check stands
        # between ``True``/``1.0`` and a valid signature.
        n = int.from_bytes(hashlib.sha256(b"honest").digest(), "big") - 1
        assert rsa_verify(b"honest", 1, (n, 65537))
        assert not rsa_verify(b"honest", bogus, (n, 65537))

    def test_verify_rejects_wrong_key(self, keypair):
        other = RSAKeyPair.generate(new_rng(1, "rsa"), bits=128)
        sig = rsa_sign(b"msg", _private_key(keypair))
        assert not rsa_verify(b"msg", sig, other.public_key)

    def test_generate_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            RSAKeyPair.generate(new_rng(0, "rsa"), bits=16)

    def test_key_exponent_relationship(self, keypair):
        # e*d == 1 mod phi is not directly checkable without p, q, but the
        # sign/verify roundtrip over several messages exercises it.
        for i in range(5):
            msg = f"message-{i}".encode()
            assert rsa_verify(msg, rsa_sign(msg, _private_key(keypair)), keypair.public_key)


class TestHashing:
    def test_sha256_known_vector(self):
        assert (
            sha256_hex(b"abc")
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_str_and_bytes_agree(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")

    def test_hash_to_int(self):
        assert hash_to_int("ff") == 255

    def test_difficulty_one_is_max_target(self):
        assert difficulty_to_target(1.0) == MAX_TARGET

    def test_target_shrinks_with_difficulty(self):
        assert difficulty_to_target(4.0) == MAX_TARGET // 4

    def test_difficulty_below_one_rejected(self):
        with pytest.raises(ValueError):
            difficulty_to_target(0.5)

    def test_meets_target(self):
        assert meets_target("00" * 32, 1)  # zero hash below any positive target... except target must be > 0
        assert meets_target("0" * 63 + "1", MAX_TARGET)
        assert not meets_target("f" * 64, MAX_TARGET // 2)

    def test_meets_target_invalid(self):
        with pytest.raises(ValueError):
            meets_target("00", 0)


class TestKeyStore:
    def test_register_and_verify(self):
        store = KeyStore(key_bits=128)
        store.register("client-1")
        sig = store.sign("client-1", b"payload")
        assert store.verify("client-1", b"payload", sig)

    def test_register_idempotent(self):
        store = KeyStore(key_bits=128)
        a = store.register("c")
        b = store.register("c")
        assert a is b
        assert len(store) == 1

    def test_unknown_entity_verify_false(self):
        store = KeyStore(key_bits=128)
        assert not store.verify("ghost", b"x", 123)

    def test_unknown_entity_keys_raise(self):
        store = KeyStore(key_bits=128)
        with pytest.raises(KeyError):
            store.public_key("ghost")

    def test_cross_entity_signature_rejected(self):
        store = KeyStore(key_bits=128)
        store.register("a")
        store.register("b")
        sig = store.sign("a", b"msg")
        assert not store.verify("b", b"msg", sig)

    def test_keys_reproducible_across_stores(self):
        first = KeyStore(key_bits=128).register("x")
        derive_key_pair.cache_clear()  # or the second store is handed `first` itself
        second = KeyStore(key_bits=128).register("x")
        assert second is not first
        assert second == first

    def test_different_entities_different_keys(self):
        store = KeyStore(key_bits=128)
        assert store.register("a").modulus != store.register("b").modulus

    def test_invalid_key_bits(self):
        with pytest.raises(ValueError):
            KeyStore(key_bits=16)


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=25, deadline=None)
def test_rsa_sign_verify_property(message):
    """Property: every signed message verifies, and a flipped bit does not."""
    keypair = RSAKeyPair.generate(new_rng(42, "rsa-prop"), bits=96)
    sig = rsa_sign(message, _private_key(keypair))
    assert rsa_verify(message, sig, keypair.public_key)
    assert not rsa_verify(message + b"x", sig, keypair.public_key)


@pytest.mark.ledger
class TestCRTSigning:
    """KeyStore signs by CRT; ``rsa_sign`` with the plain exponent is the reference."""

    @given(message=st.binary(min_size=0, max_size=200), entity=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("key_bits", [32, 33, 64, 256])
    def test_keystore_sign_is_bit_identical_to_plain_exponent(self, key_bits, message, entity):
        store = KeyStore(key_bits=key_bits)
        pair = store.register(f"client-{entity}")
        signature = store.sign(f"client-{entity}", message)
        assert signature == rsa_sign(message, _private_key(pair))
        assert store.verify(f"client-{entity}", message, signature)
        assert pair.prime_p * pair.prime_q == pair.modulus

    def test_sign_unknown_entity_raises(self):
        with pytest.raises(KeyError):
            KeyStore(key_bits=64).sign("ghost", b"m")

    def test_golden_keys_from_parent_commit(self):
        """Recorded before the candidate assembly changed: keys must not move."""
        pair = KeyStore().register("client-0")
        assert pair.public_key == (
            41948747794924615534045945089667993648950090608416351104566594852818476509363,
            65537,
        )
        assert pair.private_exponent == (
            22004578355645184137654019871104967966942691866541708244505684207199483323793
        )
        small = KeyStore(key_bits=33).register("client-0")
        assert (small.modulus, small.public_exponent, small.private_exponent) == (
            5038465609, 65537, 1604201037
        )


@pytest.mark.ledger
class TestDerivationMemo:
    """`derive_key_pair` shares the derivation between stores and nothing else."""

    @pytest.mark.parametrize("entity", ["client-0", "client-7", "client-2147483648", "miner-1"])
    @pytest.mark.parametrize("key_bits", [32, 33, 64, 256])
    def test_warm_pair_equals_undecorated_derivation(self, key_bits, entity):
        derive_key_pair(key_bits, entity)  # warm
        served = KeyStore(key_bits=key_bits).register(entity)
        assert served is derive_key_pair(key_bits, entity)
        assert served == derive_key_pair.__wrapped__(key_bits, entity)

    def test_golden_keys_hold_warm_and_cold(self):
        golden = TestCRTSigning().test_golden_keys_from_parent_commit
        golden()
        golden()  # served from the memo the first call filled
        derive_key_pair.cache_clear()
        golden()

    def test_registration_is_not_shared(self):
        a = KeyStore(key_bits=64)
        a.register("client-0")
        signature = a.sign("client-0", b"upload")
        assert a.verify("client-0", b"upload", signature)
        b = KeyStore(key_bits=64)
        assert b.verify("client-0", b"upload", signature) is False
        with pytest.raises(KeyError):
            b.sign("client-0", b"upload")
        with pytest.raises(KeyError):
            b.public_key("client-0")
        assert len(b) == 0

    def test_racing_registrations_agree(self):
        derive_key_pair.cache_clear()
        ids = [f"client-{i}" for i in range(50)]
        stores = [KeyStore(key_bits=64) for _ in range(8)]
        barrier = threading.Barrier(len(stores))

        def enrol(store):
            barrier.wait(timeout=30)
            for entity in ids:
                store.register(entity)

        threads = [threading.Thread(target=enrol, args=(store,)) for store in stores]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert derive_key_pair.cache_info().misses == len(ids)  # single-flight
        for entity in ids:
            expected = derive_key_pair.__wrapped__(64, entity)
            assert all(store.register(entity) == expected for store in stores)

    @pytest.fixture
    def cheap_keygen(self, monkeypatch):
        """``RSAKeyPair.generate`` as a deterministic stand-in, for tests that
        only need the memo to overflow; the memo is emptied on teardown so no
        stand-in pair reaches a later test."""

        def stand_in(rng, *, bits=256):
            n = int(rng.integers(1, 2**62))
            return RSAKeyPair(n, 65537, n, 1, 1, 1, 1, 1)

        monkeypatch.setattr(RSAKeyPair, "generate", stand_in)
        yield
        derive_key_pair.cache_clear()

    def test_memo_is_bounded_and_eviction_is_invisible(self, cheap_keygen):
        derive_key_pair.cache_clear()
        maxsize = derive_key_pair.cache_info().maxsize
        first = derive_key_pair(32, "entity-0")
        for i in range(1, maxsize + 100):
            derive_key_pair(32, f"entity-{i}")
        info = derive_key_pair.cache_info()
        assert info.currsize == maxsize
        assert info.misses == maxsize + 100
        again = derive_key_pair(32, "entity-0")  # evicted: derived afresh
        assert derive_key_pair.cache_info().misses == maxsize + 101
        assert again is not first
        assert again == first

    def test_a_grid_derives_each_entity_once(self, monkeypatch):
        """Count guard: 4 cells over 2 seeds execute keygen once per entity."""
        base = ScenarioSpec(name="memo", num_clients=4, num_samples=160, num_rounds=1, miners=2)
        cells = ScenarioMatrix(base, {"seed": [0, 1], "learning_rate": [0.05, 0.1]}).expand()
        assert len(cells) == 4 and all(cell.verify_signatures for cell in cells)

        executions = []
        generate = RSAKeyPair.generate

        def counting_generate(rng, *, bits=256):
            executions.append(bits)
            return generate(rng, bits=bits)

        monkeypatch.setattr(RSAKeyPair, "generate", counting_generate)

        def histories(clear_before_every_cell):
            engine = ExperimentEngine()
            derive_key_pair.cache_clear()
            out = []
            for cell in cells:
                if clear_before_every_cell:
                    derive_key_pair.cache_clear()
                out.append(history_to_payload(engine.run(cell)))
            return out

        population = base.num_clients + base.miners
        shared = histories(clear_before_every_cell=False)
        assert len(executions) == population
        executions.clear()
        cold = histories(clear_before_every_cell=True)
        assert len(executions) == 4 * population  # what every cell cost before the memo
        assert shared == cold

    def test_keys_differ_across_entities_not_seeds(self):
        """A key is an identity: one pair per entity, the same under every seed."""
        engine = ExperimentEngine()
        keystores = []
        for seed in (0, 1, 1001):
            spec = ScenarioSpec(
                name="identity", num_clients=4, num_samples=160, num_rounds=1, miners=2, seed=seed
            ).validate()
            trainer = get_system("fairbfl").build(spec, engine.dataset_for(spec)).trainer
            trainer.close()
            keystores.append(trainer.keystore)
        entities = [f"client-{cid}" for cid in range(4)] + ["miner-0", "miner-1"]
        derive_key_pair.cache_clear()
        for entity in entities:
            fresh = derive_key_pair.__wrapped__(256, entity)
            assert all(store.register(entity) == fresh for store in keystores)
        moduli = {keystores[0].public_key(entity)[0] for entity in entities}
        assert len(moduli) == len(entities)
        # A different modulus size is a different key for the same entity.
        assert derive_key_pair(64, "client-0").modulus != keystores[0].public_key("client-0")[0]
