"""Tests for ledger serialisation, history export, and the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.serialization import (
    block_from_dict,
    block_to_dict,
    chain_from_dict,
    chain_to_dict,
    load_chain,
    save_chain,
    transaction_from_dict,
    transaction_to_dict,
)
from repro.blockchain.transaction import (
    make_global_update_transaction,
    make_gradient_transaction,
    make_reward_transaction,
)
from repro.cli import build_parser, main
from repro.core.io import (
    load_history_json,
    save_comparison_csv,
    save_history_csv,
    save_history_json,
)
from repro.core.results import ComparisonResult
from repro.crypto.keystore import KeyStore
from repro.fl.history import RoundRecord, TrainingHistory


def _sample_chain():
    chain = Blockchain(enforce_pow=False)
    chain.add_genesis(Block.genesis())
    keystore = KeyStore(seed=0, key_bits=128)
    keystore.register("miner-0")
    for r in range(3):
        block = Block.create(
            index=r + 1,
            previous_hash=chain.last_block.block_hash,
            round_index=r,
            miner_id="miner-0",
            transactions=[
                make_global_update_transaction("miner-0", r, np.full(6, float(r)), keystore=keystore),
                make_reward_transaction("miner-0", r, f"client-{r}", 0.5, keystore=keystore),
            ],
        )
        chain.add_block(block)
    return chain, keystore


class TestTransactionSerialization:
    def test_roundtrip_preserves_payload_and_signature(self):
        keystore = KeyStore(seed=0, key_bits=128)
        keystore.register("client-0")
        tx = make_gradient_transaction("client-0", 2, np.arange(5, dtype=float), keystore=keystore)
        restored = transaction_from_dict(transaction_to_dict(tx))
        assert restored.tx_id == tx.tx_id
        np.testing.assert_allclose(restored.payload, tx.payload)
        assert restored.verify(keystore)

    def test_roundtrip_is_json_compatible(self):
        tx = make_reward_transaction("miner-0", 1, "client-3", 0.25)
        as_json = json.dumps(transaction_to_dict(tx))
        restored = transaction_from_dict(json.loads(as_json))
        assert restored.metadata["client"] == "client-3"


class TestBlockAndChainSerialization:
    def test_block_roundtrip(self):
        chain, _ = _sample_chain()
        block = chain.blocks[2]
        restored = block_from_dict(block_to_dict(block))
        assert restored.block_hash == block.block_hash
        assert restored.validate_merkle_root()
        np.testing.assert_allclose(restored.global_update(), block.global_update())

    def test_block_tamper_detected(self):
        chain, _ = _sample_chain()
        data = block_to_dict(chain.blocks[1])
        data["header"]["round_index"] = 99
        with pytest.raises(ValueError, match="hash mismatch|Merkle"):
            block_from_dict(data)

    def test_chain_roundtrip_revalidates(self):
        chain, _ = _sample_chain()
        restored = chain_from_dict(chain_to_dict(chain))
        assert restored.height == chain.height
        assert restored.is_valid()
        assert restored.last_block.block_hash == chain.last_block.block_hash
        totals = restored.total_rewards_by_client()
        assert totals["client-1"] == pytest.approx(0.5)

    def test_chain_tamper_detected(self):
        chain, _ = _sample_chain()
        data = chain_to_dict(chain)
        # Swap two blocks: the hash links no longer match.
        data["blocks"][1], data["blocks"][2] = data["blocks"][2], data["blocks"][1]
        with pytest.raises(Exception):
            chain_from_dict(data)

    def test_save_and_load_file(self, tmp_path):
        chain, _ = _sample_chain()
        path = save_chain(chain, tmp_path / "ledger.json")
        restored = load_chain(path)
        assert restored.height == chain.height
        assert restored.is_valid()

    def test_empty_chain_roundtrip(self):
        restored = chain_from_dict(chain_to_dict(Blockchain()))
        assert restored.height == 0


class TestHistoryIO:
    def _history(self):
        hist = TrainingHistory(label="x")
        for i in range(4):
            hist.append(
                RoundRecord(
                    round_index=i,
                    delay=1.5,
                    accuracy=0.2 * i,
                    train_loss=1.0 / (i + 1),
                    elapsed_time=1.5 * (i + 1),
                    participants=[0, 1],
                    discarded=[2] if i == 2 else [],
                    attackers=[3] if i == 1 else [],
                    rewards={0: 0.5, 1: 0.5},
                )
            )
        return hist

    def test_json_roundtrip(self, tmp_path):
        hist = self._history()
        path = save_history_json(hist, tmp_path / "hist.json")
        restored = load_history_json(path)
        assert restored.label == "x"
        assert len(restored) == 4
        np.testing.assert_allclose(restored.accuracies, hist.accuracies)
        np.testing.assert_allclose(restored.delays, hist.delays)
        assert restored.rounds[2].discarded == [2]
        assert restored.rounds[1].attackers == [3]
        assert restored.total_rewards() == hist.total_rewards()

    def test_csv_export(self, tmp_path):
        path = save_history_csv(self._history(), tmp_path / "hist.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("round_index,delay,accuracy")
        assert len(lines) == 5

    def test_comparison_csv_export(self, tmp_path):
        table = ComparisonResult(title="t", columns=["a", "b"])
        table.add_row(1, 2.0)
        path = save_comparison_csv(table, tmp_path / "cmp.csv")
        lines = path.read_text().strip().splitlines()
        assert lines == ["a,b", "1,2.0"]


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["run", "fedavg"])
        assert args.system == "fedavg"
        assert args.clients == 12
        assert args.rounds == 8

    def test_run_blockchain(self, capsys):
        code = main(["run", "blockchain", "--clients", "8", "--rounds", "2", "--samples", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== blockchain ==" in out
        assert "avg delay" in out

    def test_run_command_fairbfl_with_export(self, tmp_path, capsys):
        export = tmp_path / "series.csv"
        code = main(
            [
                "run",
                "fairbfl",
                "--clients", "6",
                "--rounds", "2",
                "--samples", "400",
                "--participation", "0.5",
                "--export", str(export),
            ]
        )
        assert code == 0
        assert export.exists()
        out = capsys.readouterr().out
        assert "== fairbfl ==" in out

    def test_run_command_fedavg(self, capsys):
        code = main(["run", "fedavg", "--clients", "6", "--rounds", "2", "--samples", "400"])
        assert code == 0
        assert "fedavg" in capsys.readouterr().out

    def test_run_command_unbuildable_split_exits_2(self, capsys):
        code = main(["run", "fairbfl", "--clients", "12", "--samples", "30", "--rounds", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        for named in ("num_clients=12", "num_samples=30", "scheme='dirichlet'"):
            assert named in err

    def test_compare_command(self, tmp_path, capsys):
        export = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--clients", "6",
                "--rounds", "2",
                "--samples", "400",
                "--export", str(export),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "System comparison" in out
        assert export.exists()
        header = export.read_text().splitlines()[0]
        assert header == "system,avg_delay_s,avg_accuracy,final_accuracy"
