"""Command-line surface: outputs, file handling, and exit codes."""

from __future__ import annotations

import pytest

import posetcube.chainfamily
import posetcube.universal
from posetcube import Poset, parse_embedding, random_poset, write_poset
from posetcube.chainfamily import chain_family
from posetcube.cli import main
from helpers import fence_poset

CHAIN5 = "5\n0 < 1\n1 < 2\n2 < 3\n3 < 4\n"
ANTI5 = "5\n"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain5.poset"
    path.write_text(CHAIN5)
    return path


class TestFamilyCommand:
    def test_prefixes(self, capsys):
        assert main(["family", "--n", "3", "--a", "1"]) == 0
        assert capsys.readouterr().out == "m=3 count=4\n-\n1\n1,2\n1,2,3\n"

    def test_line_count_matches_library(self, capsys):
        assert main(["family", "--n", "4", "--a", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(chain_family(4, 2)) + 1

    def test_default_budget(self, capsys):
        assert main(["family", "--n", "6"]) == 0
        assert capsys.readouterr().out.startswith("m=6 ")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "fam.txt"
        assert main(["family", "--n", "3", "--a", "1", "--out", str(out)]) == 0
        assert out.read_text() == "m=3 count=4\n-\n1\n1,2\n1,2,3\n"
        assert capsys.readouterr().out == ""

    def test_cap_exceeded(self, capsys):
        assert main(["family", "--n", "64", "--a", "22"]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_tiny_cap_exceeded(self, capsys):
        assert main(["family", "--n", "10", "--cap", "5"]) == 2

    def test_zero_elements_rejected(self, capsys):
        assert main(["family", "--n", "0"]) == 1


class TestEmbedCommand:
    def test_chain_verified(self, chain_file, capsys):
        assert main(["embed", "--in", str(chain_file)]) == 0
        out = capsys.readouterr().out
        assert "branch=chain-cover" in out
        assert out.endswith("VERIFIED\n")
        assert "0: 1\n1: 1,2\n2: 1,2,3\n3: 1,2,3,4\n4: 1,2,3,4,5\n" in out

    def test_antichain_via_labels(self, tmp_path, capsys):
        path = tmp_path / "anti.poset"
        path.write_text(ANTI5)
        assert main(["embed", "--in", str(path)]) == 0
        assert "branch=antichain-labels" in capsys.readouterr().out

    def test_out_file_gets_certificate(self, chain_file, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        assert main(["embed", "--in", str(chain_file), "--out", str(out)]) == 0
        emb = parse_embedding(out.read_text())
        assert emb.n == 5
        assert capsys.readouterr().out == "branch=chain-cover\nVERIFIED\n"

    def test_long_augmenting_path_verified(self, tmp_path, capsys):
        path = tmp_path / "fence.poset"
        path.write_text(write_poset(fence_poset(1200)))
        out = tmp_path / "fence.cert"
        assert main(["embed", "--in", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "branch=antichain-labels\nVERIFIED\n"
        assert parse_embedding(out.read_text()).n == 2402

    def test_cycle_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.poset"
        path.write_text("2\n0 < 1\n1 < 0\n")
        assert main(["embed", "--in", str(path)]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_huge_header_exits_one(self, tmp_path, capsys):
        path = tmp_path / "huge.poset"
        path.write_text("1000000000\n")
        assert main(["embed", "--in", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_text("not a poset\n")
        assert main(["embed", "--in", str(path)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["embed", "--in", str(tmp_path / "nope.poset")]) == 1

    def test_budget_override(self, tmp_path, capsys):
        path = tmp_path / "p.poset"
        path.write_text(write_poset(random_poset(9, 0.4, 3)))
        assert main(["embed", "--in", str(path), "--a", "4"]) == 0
        assert capsys.readouterr().out.endswith("VERIFIED\n")

    def test_never_materializes_the_chain_family(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("embed materialized the chain family")

        monkeypatch.setattr(posetcube.chainfamily, "chain_family", refuse)
        monkeypatch.setattr(posetcube.universal, "chain_family", refuse)
        path = tmp_path / "p.poset"
        path.write_text(write_poset(random_poset(22, 0.3, 7)))
        assert main(["embed", "--in", str(path)]) == 0
        assert capsys.readouterr().out.endswith("VERIFIED\n")

    def test_thirty_elements(self, tmp_path, capsys):
        path = tmp_path / "p.poset"
        path.write_text(write_poset(random_poset(30, 0.2, 11)))
        out = tmp_path / "p.cert"
        assert main(["embed", "--in", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith("VERIFIED\n")
        assert parse_embedding(out.read_text()).n == 30

    def test_cap_flag_rejected(self, chain_file, capsys):
        assert main(["embed", "--in", str(chain_file), "--cap", "5"]) == 1
        assert capsys.readouterr().out == ""


class TestVerifyAllCommand:
    def test_three(self, capsys):
        assert main(["verify-all", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "19/19" in out

    def test_four_reports_branches(self, capsys):
        assert main(["verify-all", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "219/219" in out
        assert "chain-cover=174 antichain-labels=45 folklore=0" in out

    def test_above_cap_exits_one(self, capsys):
        assert main(["verify-all", "--n", "6"]) == 1


class TestStatsCommand:
    def test_single_row(self, capsys):
        assert main(["stats", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "n=1" in out and "cardinality=2" in out and "pow2_n=2" in out

    def test_fifteen(self, capsys):
        assert main(["stats", "--n", "15"]) == 0
        values = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines() if line
        )
        assert int(values["cardinality"]) < 32768
        assert int(values["cardinality"]) <= int(values["size_bound"])
        assert float(values["ratio_bits"]) < 1.0

    def test_range_produces_blocks(self, capsys):
        assert main(["stats", "--n", "4..6"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith("n=")]
        assert rows == ["n=4", "n=5", "n=6"]
        assert out.count("\n\n") == 2

    def test_predicate_only_row(self, capsys):
        assert main(["stats", "--n", "10", "--cap", "4"]) == 0
        out = capsys.readouterr().out
        assert "cardinality=predicate-only" in out
        assert "ratio_bits" not in out


class TestPartitionsCommand:
    def test_count_ten(self, capsys):
        assert main(["partitions", "--n", "10"]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_count_zero(self, capsys):
        assert main(["partitions", "--n", "0"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_count_fifty(self, capsys):
        assert main(["partitions", "--n", "50"]) == 0
        assert capsys.readouterr().out == "204226\n"

    def test_listing(self, capsys):
        assert main(["partitions", "--n", "4", "--list"]) == 0
        assert capsys.readouterr().out == "5\n4\n3,1\n2,2\n2,1,1\n1,1,1,1\n"


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["family", "--n", "3", "--frobnicate"]) == 1

    def test_range_where_single_n_expected(self, capsys):
        assert main(["family", "--n", "3..5"]) == 1

    def test_bad_range_syntax(self, capsys):
        assert main(["stats", "--n", "x..y"]) == 1

    def test_empty_range(self, capsys):
        assert main(["stats", "--n", "6..4"]) == 1

    def test_negative_cap(self, capsys):
        assert main(["stats", "--n", "4", "--cap", "-1"]) == 1
        assert main(["family", "--n", "4", "--cap", "-1"]) == 1

    def test_seed_flag_rejected(self, capsys):
        assert main(["--seed", "7", "partitions", "--n", "3"]) == 1
        assert capsys.readouterr().out == ""
