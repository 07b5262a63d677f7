import errno
import json
import os
import subprocess
import sys
from hashlib import sha256

import numpy as np
import pytest

from modgalrep.cli import MatrixCache, run_command
from modgalrep.pipeline import TABLE_ROWS

MAT = [[1, -2, 3], [40000000000000000000000, 0, -5]]


def test_cache_round_trip(tmp_path):
    cache = MatrixCache(str(tmp_path))
    assert cache.load(6, 12, "T5", "fp") is None
    cache.store(6, 12, "T5", np.array(MAT, dtype=object), "fp")
    assert cache.load(6, 12, "T5", "fp").tolist() == MAT
    assert cache.load(6, 12, "T7", "fp") is None


@pytest.mark.parametrize("value, width", [
    (0, 1), (127, 1), (-128, 1), (128, 2), (-129, 2), (-127, 1),
    (32767, 2), (-32768, 2), (32768, 4), (-32769, 4), (-32767, 2),
    (2 ** 31, 8), (-2 ** 31, 4), (2 ** 31 - 1, 4), (-2 ** 31 - 1, 8),
    (2 ** 63 - 1, 8), (-2 ** 63, 8), (2 ** 63, 9), (-2 ** 63 - 1, 9),
    (4 * 10 ** 22, 10), (-4 * 10 ** 22, 10),
])
def test_cache_round_trip_at_every_width(tmp_path, value, width):
    cache = MatrixCache(str(tmp_path))
    rows = [[value, -1, 0], [1, 0, value]]
    cache.store(6, 12, "T5", np.array(rows, dtype=object), "fp")
    with open(cache._path(6, 12, "T5"), "rb") as fh:
        head = fh.readline().split()
    assert head[:2] == [b"MSYMMAT", b"3"] and int(head[4]) == width
    mat = cache.load(6, 12, "T5", "fp")
    assert mat.shape == (2, 3) and mat.tolist() == rows
    assert mat.dtype == (np.int64 if width <= 8 else object)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
def test_cache_round_trip_of_an_empty_matrix(tmp_path, shape):
    cache = MatrixCache(str(tmp_path))
    cache.store(6, 12, "T5", np.zeros(shape, dtype=np.int64), "fp")
    mat = cache.load(6, 12, "T5", "fp")
    assert mat.shape == shape and mat.dtype == np.int64


class _FullDisk:
    """A file object whose writes fail as on a full disk."""

    def __init__(self, fd, mode):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch,
                                                capsys, failing):
    cache = MatrixCache(str(tmp_path))
    if failing == "write":
        monkeypatch.setattr(os, "fdopen", _FullDisk)
    else:
        def replace(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(os, "replace", replace)
    cache.store(6, 12, "Z", np.array(MAT, dtype=object), "fp")
    assert "cache write failed" in capsys.readouterr().err
    assert os.listdir(os.path.dirname(cache._path(6, 12, "Z"))) == []
    assert cache.load(6, 12, "Z", "fp") is None


def _damage_and_load(tmp_path, damage):
    cache = MatrixCache(str(tmp_path))
    cache.store(6, 12, "T5", np.array(MAT, dtype=object), "fp")
    path = cache._path(6, 12, "T5")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    with open(path, "wb") as fh:
        fh.write(damage(data))
    assert cache.load(6, 12, "T5", "fp") is None
    assert not os.path.exists(path)


def test_cache_deletes_corrupt_entry(tmp_path):
    # one entry byte flipped: the -2 of the first row becomes another value
    def flip(data):
        data[data.index(b"\n") + 1 + 10] ^= 1
        return data
    _damage_and_load(tmp_path, flip)


def test_cache_deletes_truncated_entry(tmp_path):
    _damage_and_load(tmp_path, lambda data: data[:-40])


def _sealed(body):
    """An entry's bytes before its trailer, followed by their SHA-256."""
    return bytes(body) + sha256(body).digest()


@pytest.mark.parametrize("damage", [
    # binary entries under the header of the decimal text format
    lambda data: _sealed(data[:-32].replace(b"MSYMMAT 3", b"MSYMMAT 2", 1)),
    # one byte short of rows * cols * width: MAT's entries take 10 bytes,
    # so the bytes left would still decode into six entries
    lambda data: _sealed(data[:-33]),
], ids=["version", "shape"])
def test_cache_deletes_entry_whose_checksummed_header_is_wrong(tmp_path,
                                                               damage):
    _damage_and_load(tmp_path, damage)


def test_cache_ignores_entry_of_another_presentation(tmp_path):
    cache = MatrixCache(str(tmp_path))
    cache.store(6, 12, "T5", np.array(MAT, dtype=object), "old")
    assert cache.load(6, 12, "T5", "new") is None
    assert cache.load(6, 12, "T5", "old").tolist() == MAT
    cache.store(6, 12, "T5", np.array([[7]], dtype=object), "new")
    assert cache.load(6, 12, "T5", "new").tolist() == [[7]]
    assert cache.load(6, 12, "T5", "old") is None


def test_cache_keeps_each_plus_minus_h_apart(tmp_path):
    # two subgroups at 35 whose +-H differ: an operator stored under one is
    # a miss under the other, also with the other's fingerprint
    from modgalrep.congruence import intermediate_subgroups, plus_minus
    from modgalrep.modsym import build_space
    by_plus_minus = {}
    for h in intermediate_subgroups(35):
        by_plus_minus.setdefault(plus_minus(35, h), h)
    first, second = [h for pm, h in by_plus_minus.items() if len(pm) > 2][:2]
    cache = MatrixCache(str(tmp_path))
    one = build_space(35, 2, cache, first)
    other = build_space(35, 2, MatrixCache(str(tmp_path)), second)
    one.hecke_matrix(2)
    label = one.ambient.cache_prefix + "Z"
    assert cache.load(35, 2, label, one.ambient.fingerprint) is not None
    for fingerprint in (one.ambient.fingerprint, other.ambient.fingerprint):
        assert cache.load(35, 2, other.ambient.cache_prefix + "Z",
                          fingerprint) is None
    # a zero T_2 in the stacked entry: row [key 2, entries row by row]
    zero = np.zeros((1, 1 + other.dim ** 2), np.int64)
    zero[0, 0] = 2
    cache.store(35, 2, label, zero, other.ambient.fingerprint)
    assert other.hecke_matrix(2) == build_space(
        35, 2, subgroup=second).hecke_matrix(2)
    # and neither is Gamma_1's
    assert cache.load(35, 2, "Z", one.ambient.fingerprint) is None


def _write_text_entry(path, body):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("%s\nSHA256 %s\n" % (body, sha256(body.encode()).hexdigest()))


def test_cache_drops_entry_of_an_older_format(tmp_path):
    cache = MatrixCache(str(tmp_path))
    path = cache._path(6, 12, "T5")
    _write_text_entry(path, "MSYMMAT 1 1 1\n7")
    assert cache.load(6, 12, "T5", "fp") is None
    assert not os.path.exists(path)


def test_cache_recomputes_a_decimal_text_entry_once(tmp_path, monkeypatch):
    from modgalrep import modsym
    space = modsym.build_space(11, 2, MatrixCache(str(tmp_path)))
    t2 = modsym.build_space(11, 2).hecke_matrix(2)
    # the decimal text format that preceded the binary one, with T_2 + 1 in
    # the stacked layout: one row, the key 2 and then the entries
    path = space._disk._path(11, 2, "Z")
    _write_text_entry(path, "\n".join(
        ["MSYMMAT 2 1 %d %s" % (1 + space.dim ** 2,
                                space.ambient.fingerprint),
         " ".join(["2"] + [str(x + 1) for row in t2 for x in row])]))
    calls = []
    apply = modsym._Ambient._apply

    def counted(self, *args):
        calls.append(1)
        return apply(self, *args)

    monkeypatch.setattr(modsym._Ambient, "_apply", counted)
    assert space.hecke_matrix(2) == t2 and len(calls) == 1
    fresh = modsym.build_space(11, 2, MatrixCache(str(tmp_path)))
    assert fresh.hecke_matrix(2) == t2 and len(calls) == 1
    with open(path, "rb") as fh:
        assert fh.readline().startswith(b"MSYMMAT 3 ")


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
    # nor is a T_4 that an older build left in the cache served: the row
    # [key 4, entries] in the stacked entry of the integer operators
    from modgalrep.modsym import build_space
    space = build_space(11, 2)
    four = np.full((1, 1 + space.dim ** 2), 2, np.int64)
    four[0, 0] = 4
    MatrixCache(str(tmp_path)).store(11, 2, "Z", four,
                                     space.ambient.fingerprint)
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


def test_audit_command_matches_exactly_inside_h():
    # row (6, 7): i = 4, and H has order 4 in (Z/42)*, which has order 12;
    # the subgroups of order 3, 6 and 12 are not inside H and match nothing
    code, doc = run_command(
        ["--no-cache", "audit", "--level", "6", "--weight", "12", "--ell",
         "7", "--a", "2=-32", "--a", "3=-243", "--truncate-bound", "50"])
    assert code == 0, doc
    assert (doc["level"], doc["twist_exponent"]) == (42, 4)
    assert doc["consistent"] and doc["heuristic"]
    assert len(doc["kernel_subgroup"]) == 4
    rows = doc["rows"]
    assert [r["match"] for r in rows] == [r["contained_in_h"] for r in rows]
    assert sorted(r["order"] for r in rows if not r["match"]) == [3, 6, 6, 6,
                                                                  12]


def test_tables_command_matches_reference_exponents():
    code, doc = run_command(
        ["--no-cache", "tables", "--max-ell", "7", "--truncate-bound", "50"])
    assert code == 0, doc
    reference = [row["reference_i"] for row in TABLE_ROWS if row["ell"] <= 7]
    assert [row["i"] for row in doc["rows"]] == reference
    assert "warnings" not in doc


def test_tables_command_covers_every_row():
    # all 17 rows at bound 50; row (1, 11) gives i = 0 where the table has 1,
    # as it does at its rigorous bound (test_untruncated_row_1_11), and its
    # warning is the only one
    code, doc = run_command(["--no-cache", "tables", "--truncate-bound", "50"])
    assert code == 0, doc
    assert len(doc["rows"]) == len(TABLE_ROWS) == 17
    reference = {(row["N"], row["ell"]): row["reference_i"]
                 for row in TABLE_ROWS}
    reference[1, 11] = 0
    assert {(row["N"], row["ell"]): row["i"] for row in doc["rows"]} \
        == reference
    assert doc["warnings"] == ["N=1 ell=11: computed twist exponent 0 "
                               "differs from the tabulated value 1"]


def test_a_form_mod_another_ell_exits_2(monkeypatch):
    # the selection hands over a form mod 11 for a run mod 13
    from modgalrep import cli, pipeline

    def select_mod_11(level, weight, ell, *args, **kwargs):
        return pipeline.select_input_form(level, weight, 11, *args, **kwargs)

    monkeypatch.setattr(cli, "select_input_form", select_mod_11)
    for command in ("twist", "realize"):
        code, doc = run_command(
            ["--no-cache", command, "--level", "1", "--weight", "12",
             "--ell", "13", "--a", "2=-24", "--truncate-bound", "50"])
        assert code == 2, doc
        assert "the form is a system mod 11, not mod 13" in doc["error"]


def test_internal_fault_exits_70(monkeypatch):
    from modgalrep import cli
    from modgalrep.exactalg.intmat import SaturationError

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


@pytest.mark.parametrize("argv, message", [
    (["msdim", "--level", "0", "--weight", "2"], "level"),
    (["eigensys", "--level", "0", "--weight", "2", "--ell", "5"], "level"),
    # S_2(Gamma_1(23)) has systems with values in F_{2^5}
    (["eigensys", "--level", "23", "--weight", "2", "--ell", "2",
      "--primes-up-to", "30"], "even characteristic"),
    (["eigensys", "--level", "11", "--weight", "2", "--ell", "1"],
     "ell must be prime, got 1"),
    (["eigensys", "--level", "11", "--weight", "2", "--ell", "0"],
     "ell must be prime, got 0"),
    (["subgroup", "--level", "3", "--weight", "12", "--ell", "0"],
     "ell must be prime, got 0"),
    (["subgroup", "--level", "3", "--weight", "12", "--ell", "-5"],
     "ell must be prime, got -5"),
    (["char", "--char", "5:2^1@0"], "order must be positive, got 0"),
    (["realize", "--level", "3", "--weight", "12", "--ell", "5", "--char",
      "triv:1", "--a", "2=78", "--truncate-bound", "20"],
     "the character has modulus 1, not the level 3"),
    (["subgroup", "--level", "3", "--weight", "12", "--ell", "5", "--char",
      "4:3^1@2"], "the character has modulus 4, not the level 3"),
    (["realize", "--level", "3", "--weight", "12", "--ell", "5", "--index",
      "-1", "--truncate-bound", "20"], "selector index -1 out of range"),
    # no system has a value at a selector prime above the selection bound,
    # nor at a selector "prime" that is not one
    (["twist", "--level", "3", "--weight", "12", "--ell", "5", "--a", "53=1",
      "--truncate-bound", "50"],
     "selector prime 53: the selection has values at the primes up to 50"),
    (["twist", "--level", "3", "--weight", "12", "--ell", "5", "--a", "4=1",
      "--truncate-bound", "50"],
     "selector prime 4: the selection has values at the primes up to 50"),
], ids=["msdim-level-0", "eigensys-level-0", "eigensys-ell-2",
        "eigensys-ell-1", "eigensys-ell-0", "subgroup-ell-0",
        "subgroup-ell-minus-5", "char-order-0", "realize-char-modulus",
        "subgroup-char-modulus", "realize-index-minus-1",
        "twist-selector-prime-above-bound", "twist-selector-not-a-prime"])
def test_limits_of_the_domain_exit_2(argv, message):
    code, doc = run_command(["--no-cache"] + argv)
    assert code == 2, doc
    assert message in doc["error"]


# the first 16 hex digits of the SHA-256 of each command's sorted-key JSON
COMMAND_PINS = [
    (["char", "--char", "13:2^1@6"], "5215e3ce500f4a80"),
    (["subgroup", "--level", "3", "--weight", "12", "--ell", "5", "--i", "1"],
     "483d6503e2349409"),
    (["genus", "--level", "39", "--subgroup", "4,14"], "c34235b5581046fa"),
    (["msdim", "--level", "23", "--weight", "2"], "d1c77a180bfbef40"),
    (["msdim", "--level", "6", "--weight", "12"], "7701c3ec3d125a82"),
    (["hecke", "--level", "40", "--weight", "2", "--p", "3"],
     "a8e92573294ba602"),
    (["eigensys", "--level", "40", "--weight", "2", "--ell", "13",
      "--primes-up-to", "50"], "a0d35b9e3dc8c2b6"),
    (["eigensys", "--level", "35", "--weight", "2", "--ell", "5",
      "--primes-up-to", "30", "--subgroup", "6,11"], "c157996ef2d87f74"),
    (["twist", "--level", "3", "--weight", "12", "--ell", "5", "--a", "2=78",
      "--truncate-bound", "50"], "4949bb960560740e"),
    (["realize", "--level", "6", "--weight", "12", "--ell", "7", "--a",
      "2=-32", "--a", "3=-243", "--truncate-bound", "50"], "7e00385a7114f3ed"),
    (["audit", "--level", "6", "--weight", "12", "--ell", "7", "--a",
      "2=-32", "--a", "3=-243", "--truncate-bound", "50"], "4629ff7a6908e170"),
]


@pytest.mark.parametrize("argv, digest", COMMAND_PINS,
                         ids=[" ".join(argv[:3]) for argv, _ in COMMAND_PINS])
def test_every_command_output_pinned(argv, digest):
    code, doc = run_command(["--no-cache"] + argv)
    assert code == 0, doc
    text = json.dumps(doc, sort_keys=True)
    assert sha256(text.encode()).hexdigest()[:16] == digest, text


def test_subgroup_with_ell_1_exits_2_in_time():
    # in a subprocess with a timeout, so that a hang fails this test alone
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "modgalrep.cli", "--no-cache", "subgroup",
         "--level", "3", "--weight", "12", "--ell", "1"],
        env=env, capture_output=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "ell must be prime, got 1" in json.loads(proc.stdout)["error"]


def test_unreadable_form_file_is_a_domain_error():
    code, doc = run_command(
        ["--no-cache", "realize", "--level", "3", "--weight", "12", "--ell",
         "5", "--form-file", "/nonexistent"])
    assert code == 2
    assert "/nonexistent" in doc["error"]


def test_form_file_lines_are_two_integers_or_blank(tmp_path):
    # a malformed line is refused with its number, not skipped; a well-formed
    # file selects as the same --a flags do
    path = tmp_path / "form.txt"
    argv = ["--no-cache", "twist", "--level", "3", "--weight", "12", "--ell",
            "5", "--truncate-bound", "50"]
    for bad in ("3=-243", "3", "3 -243 7"):
        path.write_text("2 78\n\n%s\n" % bad)
        code, doc = run_command(argv + ["--form-file", str(path)])
        assert code == 2, doc
        assert "form file %s, line 3" % path in doc["error"]
    path.write_text("2 78\n\n3 -243\n")
    code, doc = run_command(argv + ["--form-file", str(path)])
    assert code == 0, doc
    code, same = run_command(argv + ["--a", "2=78", "--a", "3=-243"])
    assert code == 0
    del doc["inputs"], same["inputs"]
    assert doc == same


def test_eigensys_without_an_operator_is_one_system():
    # no prime up to the bound and no diamond generator: the whole space is
    # one system over F_ell with no values, as with diamonds alone
    from modgalrep.pipeline import decompose_level
    [system] = decompose_level(1, 12, 5, 1)
    assert (system.field.r, system.multiplicity, system.a, system.diamond) \
        == (1, 1, {}, {})
    for level, ell, bound in [(1, 5, 1), (2, 7, 0)]:
        code, doc = run_command(
            ["--no-cache", "eigensys", "--level", str(level), "--weight",
             "12", "--ell", str(ell), "--primes-up-to", str(bound)])
        assert code == 0
        assert [(s["field_degree"], s["multiplicity"], s["a"], s["diamond"])
                for s in doc["systems"]] == [(1, doc["dim"], {}, {})]
    assert doc["dim"] == 2
    # with operators but no dimension, S_2(Gamma_1(5)) = 0 has no system
    code, doc = run_command(
        ["--no-cache", "eigensys", "--level", "5", "--weight", "2", "--ell",
         "7", "--primes-up-to", "10"])
    assert code == 0 and (doc["dim"], doc["systems"]) == (0, [])


@pytest.mark.parametrize("level, truncate", [(6, 3), (3, 1), (3, 0)])
def test_realize_with_no_good_prime_below_the_truncation_fails(
        monkeypatch, level, truncate):
    # every prime up to the bound divides N*ell, or there is none; a bound
    # of 0 is taken as given, not as the untruncated one
    from modgalrep import pipeline
    bounds = []
    decompose_level = pipeline.decompose_level

    def spy(level, weight, ell, bound, *args, **kwargs):
        bounds.append(bound)
        return decompose_level(level, weight, ell, bound, *args, **kwargs)

    monkeypatch.setattr(pipeline, "decompose_level", spy)
    code, doc = run_command(
        ["--no-cache", "realize", "--level", str(level), "--weight", "12",
         "--ell", "5", "--index", "0", "--truncate-bound", str(truncate)])
    assert code == 2
    assert "twist search exhausted" in doc["error"]
    assert bounds and max(bounds) == truncate


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


def test_warm_realize_reads_every_operator_from_the_cache(tmp_path, capsys,
                                                          monkeypatch):
    from modgalrep import modsym
    from modgalrep.cli import main
    argv = ["--cache-dir", str(tmp_path), "realize", "--level", "3",
            "--weight", "12", "--ell", "5", "--a", "2=78", "--a", "3=-243",
            "--truncate-bound", "50"]
    assert main(argv) == 0
    cold = capsys.readouterr().out

    def no_apply(self, *args):
        raise AssertionError("an ambient operator was computed on a warm run")

    # among the entries read, T_p of Gamma_0(15), the space realize matches
    # in, as Gamma_H(15) for H = (Z/15)*
    loaded = []
    load = MatrixCache.load

    def spy(self, level, weight, label, fingerprint):
        mat = load(self, level, weight, label, fingerprint)
        loaded.append((level, label.split("/")[0], mat is not None))
        return mat

    monkeypatch.setattr(modsym._Ambient, "_apply", no_apply)
    # nor are the arrays the operator kernel reads built
    monkeypatch.setattr(modsym._Ambient, "_kernel", property(no_apply))
    monkeypatch.setattr(MatrixCache, "load", spy)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert json.loads(cold)["weight2_level"] == 15
    assert (15, "H2-7", True) in loaded
    assert all(hit for _, _, hit in loaded)
