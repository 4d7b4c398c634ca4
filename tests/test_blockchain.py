"""Tests for the blockchain substrate: transactions, merkle, blocks, PoW, chain, mempool."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.block import Block, GENESIS_PREVIOUS_HASH
from repro.blockchain.chain import Blockchain, BlockValidationError
from repro.blockchain.mempool import Mempool
from repro.blockchain.merkle import merkle_proof, merkle_root, verify_merkle_proof
from repro.blockchain.pow import mine_block, sample_mining_time, sample_winner
from repro.blockchain.transaction import (
    TransactionType,
    make_global_update_transaction,
    make_gradient_transaction,
    make_reward_transaction,
)
from repro.crypto.hashing import difficulty_to_target, meets_target
from repro.crypto.keystore import KeyStore
from repro.utils.rng import new_rng


@pytest.fixture(scope="module")
def keystore():
    store = KeyStore(seed=0, key_bits=128)
    for name in ("client-0", "client-1", "miner-0", "miner-1"):
        store.register(name)
    return store


def _gradient_tx(sender="client-0", round_index=0, size=8, keystore=None, seed=0):
    vec = new_rng(seed, "tx", sender, round_index).normal(size=size)
    return make_gradient_transaction(sender, round_index, vec, keystore=keystore)


def _indexed_gradient_tx(keystore):
    vec = new_rng(0, "tx", "client-0", 0).normal(size=8)
    return make_gradient_transaction("client-0", 0, vec, keystore=keystore, client_index=1)


def _edit_metadata(tx, key, value):
    tx.metadata[key] = value


#: One edit per signed field, each applied to a signed transaction whose
#: metadata is ``{"client_index": 1}``.  ``1.0`` and ``True`` compare equal
#: to ``1`` but sign differently.
_TAMPERS = {
    "tx_type": lambda tx: setattr(tx, "tx_type", TransactionType.REWARD),
    "sender": lambda tx: setattr(tx, "sender", "client-1"),
    "round_index": lambda tx: setattr(tx, "round_index", 99),
    "payload_digest": lambda tx: setattr(tx, "payload_digest", "0" * 64),
    "payload_size_bytes": lambda tx: setattr(tx, "payload_size_bytes", 65),
    "metadata_replaced": lambda tx: setattr(tx, "metadata", {"client_index": 2}),
    "metadata_edited_in_place": lambda tx: _edit_metadata(tx, "client_index", 2),
    "metadata_key_added": lambda tx: _edit_metadata(tx, "label", "high"),
    "metadata_int_to_float": lambda tx: _edit_metadata(tx, "client_index", 1.0),
    "metadata_int_to_bool": lambda tx: _edit_metadata(tx, "client_index", True),
}


class TestTransactions:
    def test_gradient_transaction_fields(self, keystore):
        tx = _gradient_tx(keystore=keystore)
        assert tx.tx_type is TransactionType.GRADIENT_UPLOAD
        assert tx.payload_size_bytes == 8 * 8
        assert tx.signature is not None
        assert len(tx.payload_digest) == 64

    def test_signature_verifies(self, keystore):
        tx = _gradient_tx(keystore=keystore)
        assert tx.verify(keystore)

    def test_unsigned_transaction_fails_verification(self, keystore):
        tx = _gradient_tx(keystore=None)
        assert not tx.verify(keystore)

    @pytest.mark.parametrize("tamper", sorted(_TAMPERS), ids=sorted(_TAMPERS))
    def test_tampering_breaks_verification(self, keystore, tamper):
        tx = _indexed_gradient_tx(keystore)
        before = tx.tx_id  # warm the cached id before the edit
        assert tx.verify(keystore)
        _TAMPERS[tamper](tx)
        assert tx.tx_id != before
        assert not tx.verify(keystore)

    def test_signature_and_payload_are_not_signed_fields(self, keystore):
        tx = _indexed_gradient_tx(keystore)
        before = tx.tx_id
        tx.payload = np.zeros(8)
        tx.signature = None
        assert tx.tx_id == before

    def test_tx_id_changes_with_content(self, keystore):
        a = _gradient_tx(round_index=0, keystore=keystore)
        b = _gradient_tx(round_index=1, keystore=keystore)
        assert a.tx_id != b.tx_id

    def test_tx_id_deterministic(self, keystore):
        a = _gradient_tx(seed=5, keystore=keystore)
        b = _gradient_tx(seed=5, keystore=keystore)
        assert a.tx_id == b.tx_id

    def test_global_update_transaction(self, keystore):
        vec = np.ones(16)
        tx = make_global_update_transaction("miner-0", 4, vec, keystore=keystore)
        assert tx.tx_type is TransactionType.GLOBAL_UPDATE
        np.testing.assert_array_equal(tx.payload, vec)
        assert tx.verify(keystore)

    def test_reward_transaction_metadata(self, keystore):
        tx = make_reward_transaction("miner-0", 2, "client-1", 0.75, keystore=keystore)
        assert tx.tx_type is TransactionType.REWARD
        assert tx.metadata["client"] == "client-1"
        assert tx.metadata["reward"] == pytest.approx(0.75)
        assert tx.verify(keystore)


class TestMerkle:
    def test_empty_root_is_stable(self):
        assert merkle_root([]) == merkle_root([])

    def test_root_changes_with_content(self):
        assert merkle_root(["a"]) != merkle_root(["b"])
        assert merkle_root(["a", "b"]) != merkle_root(["b", "a"])

    def test_single_leaf(self):
        assert len(merkle_root(["only"])) == 64

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13])
    def test_proofs_verify(self, count):
        tx_ids = [f"tx-{i}" for i in range(count)]
        root = merkle_root(tx_ids)
        for i, tx in enumerate(tx_ids):
            proof = merkle_proof(tx_ids, i)
            assert verify_merkle_proof(tx, proof, root)

    def test_proof_fails_for_wrong_leaf(self):
        tx_ids = ["a", "b", "c", "d"]
        root = merkle_root(tx_ids)
        proof = merkle_proof(tx_ids, 0)
        assert not verify_merkle_proof("z", proof, root)

    def test_proof_index_out_of_range(self):
        with pytest.raises(IndexError):
            merkle_proof(["a"], 3)
        with pytest.raises(ValueError):
            merkle_proof([], 0)


class TestBlocks:
    def test_genesis_shape(self):
        g = Block.genesis()
        assert g.index == 0
        assert g.header.previous_hash == GENESIS_PREVIOUS_HASH
        assert g.validate_merkle_root()

    def test_create_commits_to_transactions(self, keystore):
        txs = [_gradient_tx(keystore=keystore)]
        block = Block.create(
            index=1, previous_hash="ab" * 32, round_index=0, miner_id="m", transactions=txs
        )
        assert block.validate_merkle_root()
        block.transactions.append(_gradient_tx(sender="client-1", keystore=keystore))
        assert not block.validate_merkle_root()

    def test_block_hash_depends_on_nonce(self):
        block = Block.genesis()
        h1 = block.block_hash
        block.header.nonce += 1
        assert block.block_hash != h1

    def test_global_update_extraction(self, keystore):
        vec = np.arange(5, dtype=float)
        block = Block.create(
            index=1,
            previous_hash="ab" * 32,
            round_index=0,
            miner_id="m",
            transactions=[make_global_update_transaction("miner-0", 0, vec)],
        )
        np.testing.assert_array_equal(block.global_update(), vec)
        assert Block.genesis().global_update() is None

    def test_reward_records(self):
        block = Block.create(
            index=1,
            previous_hash="ab" * 32,
            round_index=0,
            miner_id="m",
            transactions=[make_reward_transaction("m", 0, "client-3", 0.5)],
        )
        records = block.reward_records()
        assert records == [{"client": "client-3", "reward": 0.5, "label": "high"}]

    def test_size_bytes_counts_payloads(self, keystore):
        block = Block.create(
            index=1,
            previous_hash="ab" * 32,
            round_index=0,
            miner_id="m",
            transactions=[_gradient_tx(size=100)],
        )
        assert block.size_bytes >= 800


class TestProofOfWork:
    def test_mine_block_meets_target(self):
        block = Block.genesis()
        result = mine_block(block, difficulty=8.0, max_attempts=200_000)
        assert result.success
        assert meets_target(result.block_hash, difficulty_to_target(8.0))
        assert block.header.nonce == result.nonce

    def test_mine_block_failure_reported(self):
        block = Block.genesis()
        # Astronomically high difficulty with a couple of attempts must fail.
        result = mine_block(block, difficulty=2.0**200, max_attempts=3)
        assert not result.success
        assert result.attempts == 3

    def test_mine_block_invalid_attempts(self):
        with pytest.raises(ValueError):
            mine_block(Block.genesis(), max_attempts=0)

    def test_sample_mining_time_mean(self):
        rng = new_rng(0, "mine")
        samples = [sample_mining_time(rng, difficulty=10.0, hash_rate=2.0) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(5.0, rel=0.1)

    def test_sample_mining_time_validation(self):
        rng = new_rng(0, "mine")
        with pytest.raises(ValueError):
            sample_mining_time(rng, difficulty=0.5, hash_rate=1.0)
        with pytest.raises(ValueError):
            sample_mining_time(rng, difficulty=2.0, hash_rate=0.0)

    def test_sample_winner_returns_member(self):
        rng = new_rng(0, "winner")
        winner, t = sample_winner(rng, ["a", "b", "c"], difficulty=4.0)
        assert winner in {"a", "b", "c"}
        assert t >= 0.0

    def test_sample_winner_respects_hash_rates(self):
        rng = new_rng(0, "winner")
        wins = {"fast": 0, "slow": 0}
        for _ in range(300):
            w, _ = sample_winner(
                rng, ["fast", "slow"], difficulty=4.0, hash_rates={"fast": 50.0, "slow": 1.0}
            )
            wins[w] += 1
        assert wins["fast"] > wins["slow"]

    def test_sample_winner_requires_miners(self):
        with pytest.raises(ValueError):
            sample_winner(new_rng(0, "w"), [], difficulty=2.0)


class TestBlockchain:
    def _chain_with_genesis(self, enforce_pow=False):
        chain = Blockchain(enforce_pow=enforce_pow)
        chain.add_genesis(Block.genesis())
        return chain

    def test_add_genesis_once(self):
        chain = self._chain_with_genesis()
        with pytest.raises(BlockValidationError):
            chain.add_genesis(Block.genesis())

    def test_append_valid_block(self):
        chain = self._chain_with_genesis()
        tip = chain.last_block
        block = Block.create(
            index=1, previous_hash=tip.block_hash, round_index=0, miner_id="m", transactions=[]
        )
        chain.add_block(block)
        assert chain.height == 2
        assert chain.is_valid()

    def test_reject_wrong_index(self):
        chain = self._chain_with_genesis()
        block = Block.create(
            index=5, previous_hash=chain.last_block.block_hash, round_index=0,
            miner_id="m", transactions=[],
        )
        with pytest.raises(BlockValidationError, match="index"):
            chain.add_block(block)

    def test_reject_broken_link(self):
        chain = self._chain_with_genesis()
        block = Block.create(
            index=1, previous_hash="00" * 32, round_index=0, miner_id="m", transactions=[]
        )
        with pytest.raises(BlockValidationError, match="previous-hash"):
            chain.add_block(block)

    def test_reject_merkle_mismatch(self):
        chain = self._chain_with_genesis()
        block = Block.create(
            index=1, previous_hash=chain.last_block.block_hash, round_index=0,
            miner_id="m", transactions=[],
        )
        block.transactions.append(make_reward_transaction("m", 0, "c", 1.0))
        with pytest.raises(BlockValidationError, match="Merkle"):
            chain.add_block(block)

    def test_pow_enforcement(self):
        chain = self._chain_with_genesis(enforce_pow=True)
        block = Block.create(
            index=1, previous_hash=chain.last_block.block_hash, round_index=0,
            miner_id="m", transactions=[], difficulty=2.0**40,
        )
        # Without mining, an extremely hard difficulty target will not be met.
        with pytest.raises(BlockValidationError, match="difficulty target"):
            chain.add_block(block)
        mine_block(block, difficulty=8.0)
        chain.add_block(block)
        assert chain.height == 2

    def test_tampering_detected_by_is_valid(self):
        chain = self._chain_with_genesis()
        for i in range(3):
            chain.add_block(
                Block.create(
                    index=i + 1, previous_hash=chain.last_block.block_hash,
                    round_index=i, miner_id="m",
                    transactions=[make_global_update_transaction("m", i, np.full(4, float(i)))],
                )
            )
        assert chain.is_valid()
        # Tamper with a recorded global update: the Merkle root no longer matches.
        chain.blocks[2].transactions[0] = make_global_update_transaction("m", 1, np.full(4, 99.0))
        assert not chain.is_valid()

    @pytest.mark.parametrize("tamper", sorted(_TAMPERS), ids=sorted(_TAMPERS))
    def test_tampering_with_a_hashed_transaction_invalidates_the_chain(self, keystore, tamper):
        chain = self._chain_with_genesis()
        tx = _indexed_gradient_tx(keystore)
        # Block.create hashes the transaction, so its cached id is warm.
        chain.add_block(
            Block.create(
                index=1, previous_hash=chain.last_block.block_hash,
                round_index=0, miner_id="m", transactions=[tx],
            )
        )
        assert chain.is_valid()
        _TAMPERS[tamper](tx)
        assert not chain.is_valid()

    def test_latest_global_update(self):
        chain = self._chain_with_genesis()
        assert chain.latest_global_update() is None
        for i in range(2):
            chain.add_block(
                Block.create(
                    index=i + 1, previous_hash=chain.last_block.block_hash,
                    round_index=i, miner_id="m",
                    transactions=[make_global_update_transaction("m", i, np.full(3, float(i)))],
                )
            )
        np.testing.assert_array_equal(chain.latest_global_update(), [1.0, 1.0, 1.0])
        assert chain.block_for_round(0).round_index == 0
        assert chain.block_for_round(7) is None

    def test_total_rewards_by_client(self):
        chain = self._chain_with_genesis()
        chain.add_block(
            Block.create(
                index=1, previous_hash=chain.last_block.block_hash, round_index=0,
                miner_id="m",
                transactions=[
                    make_reward_transaction("m", 0, "client-1", 0.6),
                    make_reward_transaction("m", 0, "client-2", 0.4),
                ],
            )
        )
        chain.add_block(
            Block.create(
                index=2, previous_hash=chain.last_block.block_hash, round_index=1,
                miner_id="m", transactions=[make_reward_transaction("m", 1, "client-1", 1.0)],
            )
        )
        totals = chain.total_rewards_by_client()
        assert totals["client-1"] == pytest.approx(1.6)
        assert totals["client-2"] == pytest.approx(0.4)

    def test_copy_shares_blocks(self):
        chain = self._chain_with_genesis()
        clone = chain.copy()
        assert clone.height == chain.height
        assert clone.last_block is chain.last_block

    def test_last_block_on_empty_chain(self):
        with pytest.raises(IndexError):
            Blockchain().last_block


class TestMempool:
    def _tx(self, size_elements, idx):
        return make_gradient_transaction(f"w-{idx}", 0, np.zeros(size_elements))

    def test_submit_and_dedup(self):
        pool = Mempool(block_size_bytes=1000)
        tx = self._tx(4, 0)
        assert pool.submit(tx)
        assert not pool.submit(tx)
        assert len(pool) == 1

    def test_take_block_respects_size(self):
        pool = Mempool(block_size_bytes=100)  # 12 elements of 8 bytes = 96 per tx
        for i in range(5):
            pool.submit(self._tx(12, i))
        block = pool.take_block()
        assert len(block) == 1
        assert pool.pending_count == 4

    def test_take_block_packs_multiple_small(self):
        pool = Mempool(block_size_bytes=100)
        for i in range(5):
            pool.submit(self._tx(4, i))  # 32 bytes each
        block = pool.take_block()
        assert len(block) == 3  # 96 bytes fits, the 4th would exceed 100

    def test_oversized_transaction_still_taken_alone(self):
        pool = Mempool(block_size_bytes=50)
        pool.submit(self._tx(100, 0))
        assert len(pool.take_block()) == 1

    def test_blocks_required(self):
        pool = Mempool(block_size_bytes=100)
        txs = [self._tx(12, i) for i in range(5)]  # 96 bytes each -> one block per tx
        assert pool.blocks_required(txs) == 5
        assert pool.blocks_required([]) == 0
        small = [self._tx(4, i) for i in range(6)]  # 32 bytes -> 3 per block
        assert pool.blocks_required(small) == 2

    def test_pending_bytes_and_clear(self):
        pool = Mempool(block_size_bytes=1000)
        pool.submit_many([self._tx(4, i) for i in range(3)])
        assert pool.pending_bytes == 3 * 32
        pool.clear()
        assert pool.pending_count == 0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            Mempool(block_size_bytes=0)


@given(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=20, unique=True))
@settings(max_examples=30, deadline=None)
def test_merkle_proof_property(tx_ids):
    """Property: every leaf of any transaction list has a verifying audit path."""
    root = merkle_root(tx_ids)
    for i, tx in enumerate(tx_ids):
        assert verify_merkle_proof(tx, merkle_proof(tx_ids, i), root)


@given(st.integers(1, 30), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_mempool_conservation_property(num_txs, capacity_txs):
    """Property: draining the mempool never loses or duplicates transactions."""
    tx_bytes = 32
    pool = Mempool(block_size_bytes=tx_bytes * capacity_txs)
    txs = [make_gradient_transaction(f"w-{i}", 0, np.full(4, float(i))) for i in range(num_txs)]
    pool.submit_many(txs)
    drained = []
    while pool.pending_count:
        batch = pool.take_block()
        assert len(batch) <= capacity_txs
        drained.extend(batch)
    assert sorted(t.tx_id for t in drained) == sorted(t.tx_id for t in txs)
