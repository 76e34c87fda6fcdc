"""Batch Schnorr plane: sign_many/verify_many vs the scalar anchor.

The batch verifier uses a random-linear-combination check with
bisection fallback, so the property that matters is *verdict
equivalence*: for every adversarial batch shape -- forged signatures,
wrong keys, tampered/malformed/out-of-range signatures, replayed
(cross-attached) signatures, duplicated messages -- the verdict vector
must equal ``[schnorr_verify(pk, m, sig) for ...]`` exactly, with the
culprit positions identified, not just "the batch failed".
"""

import pytest

from repro.crypto.schnorr import (
    DEFAULT_GROUP,
    TEST_GROUP,
    SchnorrKeyPair,
    _challenge_hash,
    schnorr_sign,
    schnorr_sign_many,
    schnorr_verify,
    schnorr_verify_many,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def keypair():
    return SchnorrKeyPair.generate(TEST_GROUP, seed=b"batch-test")


@pytest.fixture(scope="module")
def other():
    return SchnorrKeyPair.generate(TEST_GROUP, seed=b"batch-other")


def scalar_verdicts(public, messages, signatures):
    return [
        schnorr_verify(public, message, signature)
        for message, signature in zip(messages, signatures)
    ]


class TestSignMany:
    def test_matches_per_message_sign(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(20)]
        assert schnorr_sign_many(keypair.private, messages) == [
            schnorr_sign(keypair.private, message) for message in messages
        ]

    def test_empty(self, keypair):
        assert schnorr_sign_many(keypair.private, []) == []


class TestVerifyManyHonest:
    def test_all_valid_accepted(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(32)]
        signatures = schnorr_sign_many(keypair.private, messages)
        assert schnorr_verify_many(keypair.public, messages, signatures) == (
            [True] * 32
        )

    def test_empty_batch(self, keypair):
        assert schnorr_verify_many(keypair.public, [], []) == []

    def test_single_item_batch(self, keypair):
        signature = schnorr_sign(keypair.private, b"solo")
        assert schnorr_verify_many(keypair.public, [b"solo"], [signature]) == [
            True
        ]

    def test_duplicated_messages_accepted(self, keypair):
        # Identical (message, signature) pairs at several positions must
        # not confuse the linear combination.
        signature = schnorr_sign(keypair.private, b"dup")
        messages = [b"dup"] * 5
        assert schnorr_verify_many(
            keypair.public, messages, [signature] * 5
        ) == [True] * 5

    def test_length_mismatch_rejected(self, keypair):
        with pytest.raises(ConfigurationError):
            schnorr_verify_many(keypair.public, [b"a", b"b"], [(1, 1)])


class TestVerifyManyCulprits:
    def test_single_forged_signature_isolated(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(16)]
        signatures = schnorr_sign_many(keypair.private, messages)
        commitment, s = signatures[7]
        signatures[7] = (commitment, (s + 1) % TEST_GROUP.q)
        verdicts = schnorr_verify_many(keypair.public, messages, signatures)
        assert verdicts == [index != 7 for index in range(16)]

    def test_forged_commitment_isolated(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(9)]
        signatures = schnorr_sign_many(keypair.private, messages)
        commitment, s = signatures[0]
        signatures[0] = (
            commitment * TEST_GROUP.g % TEST_GROUP.p,
            s,
        )
        verdicts = schnorr_verify_many(keypair.public, messages, signatures)
        assert verdicts == [False] + [True] * 8

    def test_multiple_culprits_all_isolated(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(24)]
        signatures = schnorr_sign_many(keypair.private, messages)
        bad = {3, 4, 11, 23}
        for index in bad:
            commitment, s = signatures[index]
            signatures[index] = (commitment, (s + index + 1) % TEST_GROUP.q)
        verdicts = schnorr_verify_many(keypair.public, messages, signatures)
        assert verdicts == [index not in bad for index in range(24)]

    def test_all_forged(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(8)]
        signatures = [
            ((commitment * TEST_GROUP.g) % TEST_GROUP.p, s)
            for commitment, s in schnorr_sign_many(keypair.private, messages)
        ]
        assert schnorr_verify_many(keypair.public, messages, signatures) == (
            [False] * 8
        )

    def test_wrong_public_key_rejects_everything(self, keypair, other):
        messages = [f"msg-{i}".encode() for i in range(12)]
        signatures = schnorr_sign_many(keypair.private, messages)
        assert schnorr_verify_many(other.public, messages, signatures) == (
            [False] * 12
        )

    def test_replayed_signature_rejected(self, keypair):
        # Signature for message i attached to message j: valid bytes,
        # wrong challenge hash.
        messages = [f"msg-{i}".encode() for i in range(6)]
        signatures = schnorr_sign_many(keypair.private, messages)
        signatures[2], signatures[5] = signatures[5], signatures[2]
        verdicts = schnorr_verify_many(keypair.public, messages, signatures)
        assert verdicts == [True, True, False, True, True, False]

    def test_malformed_signatures_filtered_structurally(self, keypair):
        messages = [f"msg-{i}".encode() for i in range(6)]
        signatures = schnorr_sign_many(keypair.private, messages)
        signatures[0] = None
        signatures[1] = (1, 2, 3)
        signatures[3] = (TEST_GROUP.p, 1)  # commitment out of range
        signatures[4] = (1, TEST_GROUP.q)  # s out of range
        verdicts = schnorr_verify_many(keypair.public, messages, signatures)
        assert verdicts == [False, False, True, False, False, True]


class TestScalarEquivalenceSweep:
    def test_mixed_adversarial_batch_matches_scalar(self, keypair, other):
        """Every tampering shape in one batch; verdicts == scalar loop."""
        messages = [f"msg-{i}".encode() for i in range(40)]
        signatures = schnorr_sign_many(keypair.private, messages)
        # Forge a few s values and commitments.
        for index in (1, 13, 29):
            commitment, s = signatures[index]
            signatures[index] = (commitment, (s + 1) % TEST_GROUP.q)
        commitment, s = signatures[20]
        signatures[20] = ((commitment * 2) % TEST_GROUP.p, s)
        # Sign some positions under the wrong key.
        for index in (5, 6):
            signatures[index] = schnorr_sign(other.private, messages[index])
        # Replay a signature across messages.
        signatures[30] = signatures[31]
        # Structural garbage.
        signatures[35] = "not-a-signature"
        signatures[36] = (0, 0)
        expected = scalar_verdicts(keypair.public, messages, signatures)
        assert expected.count(False) == 9
        assert (
            schnorr_verify_many(keypair.public, messages, signatures)
            == expected
        )

    def test_randomized_culprit_positions_match_scalar(self, keypair):
        """Sweep culprit densities; batch == scalar at each density."""
        messages = [f"m-{i}".encode() for i in range(20)]
        clean = schnorr_sign_many(keypair.private, messages)
        for n_bad in (0, 1, 2, 10, 19, 20):
            signatures = list(clean)
            for index in range(n_bad):
                commitment, s = signatures[index]
                signatures[index] = (
                    commitment,
                    (s + 1 + index) % TEST_GROUP.q,
                )
            expected = [index >= n_bad for index in range(20)]
            assert scalar_verdicts(keypair.public, messages, signatures) == (
                expected
            )
            assert (
                schnorr_verify_many(keypair.public, messages, signatures)
                == expected
            )


class TestBatchPrecondition:
    """The batch check assumes commitments in the order-q subgroup."""

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "schnorr_verify_many accepts an even number of commitments "
            "R = -g^k that schnorr_verify rejects: the randomizers are "
            "odd, so the order-2 factors cancel in the combined check; "
            "callers must only batch commitments from honest signers"
        ),
    )
    def test_negated_commitments_rejected_like_scalar(self):
        pair = SchnorrKeyPair.generate(DEFAULT_GROUP, seed=b"order-two")
        group = pair.public.group
        messages = [b"first", b"second"]
        signatures = []
        for index, message in enumerate(messages):
            k = 1000 + index
            commitment = group.p - pow(group.g, k, group.p)  # -g^k
            e = _challenge_hash(group, commitment, message)
            signatures.append((commitment, (k + pair.private.x * e) % group.q))
        scalar = scalar_verdicts(pair.public, messages, signatures)
        assert scalar == [False, False]
        assert schnorr_verify_many(pair.public, messages, signatures) == scalar
