import json
import os
from hashlib import sha256

from modgalrep.cli import MatrixCache, run_command
from modgalrep.pipeline import TABLE_ROWS

MAT = [[1, -2, 3], [40000000000000000000000, 0, -5]]


def test_cache_round_trip(tmp_path):
    cache = MatrixCache(str(tmp_path))
    assert cache.load(6, 12, "T5", "fp") is None
    cache.store(6, 12, "T5", MAT, "fp")
    assert cache.load(6, 12, "T5", "fp") == MAT
    assert cache.load(6, 12, "T7", "fp") is None


def test_cache_deletes_corrupt_entry(tmp_path):
    cache = MatrixCache(str(tmp_path))
    cache.store(6, 12, "T5", MAT, "fp")
    path = cache._path(6, 12, "T5")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("-2", "-3"))
    assert cache.load(6, 12, "T5", "fp") is None
    assert not os.path.exists(path)


def test_cache_ignores_entry_of_another_presentation(tmp_path):
    cache = MatrixCache(str(tmp_path))
    cache.store(6, 12, "T5", MAT, "old")
    assert cache.load(6, 12, "T5", "new") is None
    assert cache.load(6, 12, "T5", "old") == MAT
    cache.store(6, 12, "T5", [[7]], "new")
    assert cache.load(6, 12, "T5", "new") == [[7]]
    assert cache.load(6, 12, "T5", "old") is None


def test_cache_drops_entry_of_an_older_format(tmp_path):
    cache = MatrixCache(str(tmp_path))
    path = cache._path(6, 12, "T5")
    os.makedirs(os.path.dirname(path))
    body = "MSYMMAT 1 1 1\n7"
    with open(path, "w") as fh:
        fh.write("%s\nSHA256 %s\n" % (body, sha256(body.encode()).hexdigest()))
    assert cache.load(6, 12, "T5", "fp") is None
    assert not os.path.exists(path)


def test_hecke_command_rejects_p_below_one():
    for p in ("0", "-3"):
        code, doc = run_command(["--no-cache", "hecke", "--level", "11",
                                 "--weight", "2", "--p", p])
        assert code == 2, doc
        assert "matrix" not in doc


def test_hecke_command_rejects_p_not_prime(tmp_path):
    for p in ("1", "4"):
        code, doc = run_command(["--no-cache", "hecke", "--level", "11",
                                 "--weight", "2", "--p", p])
        assert code == 2, doc
        assert "matrix" not in doc
    # nor is a T_4 that an older build left in the cache served
    from modgalrep.modsym import build_space
    cache = MatrixCache(str(tmp_path))
    cache.store(11, 2, "T4", [[2]], build_space(11, 2).ambient.fingerprint)
    code, doc = run_command(["--cache-dir", str(tmp_path), "hecke", "--level",
                             "11", "--weight", "2", "--p", "4", "--full"])
    assert code == 2, doc


def test_realize_untruncated_level3_weight12_ell5():
    # the rigorous bound here is 576: every T_p with p <= 576 at (3, 12)
    code, doc = run_command(
        ["--no-cache", "realize", "--level", "3", "--weight", "12", "--ell",
         "5", "--a", "2=78", "--a", "3=-243"])
    assert code == 0, doc
    assert (doc["twist_exponent"], doc["d1"], doc["dH"]) == (1, 1, 1)
    assert doc["weight2_level"] == 15
    assert doc["twist_search"]["heuristic"] is False
    assert doc["match"]["bound"] == 576
    assert "heuristic" not in doc["match"]


def test_realize_command_runs():
    code, doc = run_command(
        ["--no-cache", "realize", "--level", "1", "--weight", "12", "--ell",
         "11", "--a", "2=-24", "--truncate-bound", "50"])
    assert code == 0, doc
    assert doc["weight2_level"] == 11


def test_tables_command_matches_reference_exponents():
    code, doc = run_command(
        ["--no-cache", "tables", "--max-ell", "7", "--truncate-bound", "50"])
    assert code == 0, doc
    reference = [row["reference_i"] for row in TABLE_ROWS if row["ell"] <= 7]
    assert [row["i"] for row in doc["rows"]] == reference
    assert "warnings" not in doc


def test_internal_fault_exits_70(monkeypatch):
    from modgalrep import cli
    from modgalrep.exactalg import SaturationError

    def broken(*args, **kwargs):
        raise SaturationError("pivot block is not unimodular")

    monkeypatch.setattr(cli, "build_space", broken)
    code, doc = run_command(["--no-cache", "msdim", "--level", "5",
                             "--weight", "2"])
    assert code == 70
    assert "SaturationError" in doc["error"] and doc["command"] == "msdim"


def test_domain_error_exits_2():
    code, doc = run_command(
        ["--no-cache", "realize", "--level", "1", "--weight", "12", "--ell",
         "3", "--a", "2=-24"])
    assert code == 2
    assert "ell" in doc["error"]


def test_main_emits_the_requested_format(capsys):
    from modgalrep.cli import main
    assert main(["--format", "tsv", "char", "--char", "triv:5"]) == 0
    line = capsys.readouterr().out.strip()
    assert json.loads(line)["command"] == "char"


def test_no_cache_run_writes_nothing_after_a_cached_run(tmp_path):
    root = str(tmp_path)

    def written():
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, files in os.walk(root) for f in files)

    for args in (["hecke", "--level", "17", "--weight", "2", "--p", "2"],
                 ["hecke", "--level", "17", "--weight", "2", "--p", "2",
                  "--full"]):
        code, doc = run_command(["--cache-dir", root] + args)
        assert code == 0, doc
    before = written()
    assert before
    for args in (["hecke", "--level", "17", "--weight", "2", "--p", "3"],
                 ["hecke", "--level", "17", "--weight", "2", "--p", "5",
                  "--full"]):
        code, doc = run_command(["--no-cache"] + args)
        assert code == 0, doc
    assert written() == before


def test_cache_without_directory_is_never_asked(monkeypatch):
    from modgalrep.pipeline import plus_cuspidal_space
    calls = []

    def spy(name):
        def method(self, *args):
            calls.append(name)
            raise AssertionError("%s on a cache without a directory" % name)
        return method

    monkeypatch.setattr(MatrixCache, "load", spy("load"))
    monkeypatch.setattr(MatrixCache, "store", spy("store"))
    code, doc = run_command(["--no-cache", "hecke", "--level", "11",
                             "--weight", "2", "--p", "2"])
    assert code == 0, doc
    plus_cuspidal_space(11, 2).hecke_matrix(2)
    assert calls == []
