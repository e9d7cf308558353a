import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liepar
from liepar.cli import main

UPPER2 = json.dumps([
    [1, 0, 0, 0],  # E11 in the basis E11, E12, E21, E22
    [0, 1, 0, 0],
    [0, 0, 0, 1],
])
LOWER2 = json.dumps([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
])
CARTAN2 = json.dumps([[1, 0, 0, 0], [0, 0, 0, 1]])


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_make(capsys):
    code, out = run(capsys, ["make", "gl:3"])
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 9 and data["reductive"] is True
    assert data["algebra"] == ["gl", 3]


def test_make_bad_algebra(capsys):
    code, out = run(capsys, ["make", "sp:4"])
    assert code == 1
    assert json.loads(out)["error"] == "domain"


def test_check_positive(capsys):
    code, out = run(capsys, ["check", "gl:2", "--space", UPPER2])
    data = json.loads(out)
    assert code == 0 and data["parabolic"] is True
    assert data["conditions"] == [True] * 4
    assert data["nilradical"] == [["0/1", "1/1", "0/1", "0/1"]]


def test_check_negative(capsys):
    code, out = run(capsys, ["check", "gl:2", "--space", CARTAN2])
    data = json.loads(out)
    assert code == 0 and data["parabolic"] is False
    assert data["conditions"] == [False] * 4


def test_check_non_subalgebra_is_domain_error(capsys):
    bad = json.dumps([[0, 1, 0, 0], [0, 0, 1, 0]])
    code, out = run(capsys, ["check", "gl:2", "--space", bad])
    assert code == 1
    assert json.loads(out)["error"] == "domain"


def test_opposite(capsys):
    code, out = run(capsys, ["opposite", "gl:2", "--space", UPPER2])
    data = json.loads(out)
    assert code == 0
    assert data["nilradical"] == [["0/1", "0/1", "1/1", "0/1"]]


def test_project_self_opposite(capsys):
    code, out = run(
        capsys, ["project", "gl:2", "--p", LOWER2, "--q", UPPER2]
    )
    data = json.loads(out)
    assert code == 0
    assert data["r0_dim"] == 2  # full Levi quotient of the Borel


def test_levi(capsys):
    code, out = run(capsys, ["levi", "gl:2", "--space", UPPER2])
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 2 and data["nilradical_dim"] == 1


def test_rootdata(capsys):
    code, out = run(capsys, ["rootdata", "so:3,2"])
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 8 and data["cartan_dim"] == 2


def test_weyl(capsys):
    code, out = run(capsys, ["weyl", "gl:2", "--space", LOWER2])
    data = json.loads(out)
    assert code == 0
    assert data["length"] == 1 and data["rank"] == 1


def test_delta(capsys):
    code, out = run(
        capsys, ["delta", "gl:2", "--p", UPPER2, "--q", LOWER2]
    )
    data = json.loads(out)
    assert code == 0 and data["delta"] == [0]


def test_building_model(capsys):
    code, out = run(capsys, ["building", "--model", "A:2", "--table"])
    data = json.loads(out)
    assert code == 0 and data["chambers"] == 6
    table = data["delta"]
    lengths = sorted(
        len(w) for row in table.values() for w in row.values()
    )
    assert lengths[0] == 0 and lengths[-1] == 3


def test_building_lie(capsys):
    code, out = run(capsys, ["building", "gl:2"])
    data = json.loads(out)
    assert code == 0 and data["chambers"] == 2


def test_building_dot(capsys):
    code, out = run(capsys, ["building", "--model", "A:1", "--dot"])
    assert code == 0 and out.startswith("graph")


def test_building_needs_input(capsys):
    code, out = run(capsys, ["building"])
    assert code == 1


def test_config_tetrahedron_matches_golden(capsys):
    code, out = run(capsys, ["config", "tetrahedron"])
    assert code == 0
    golden = Path(liepar.__file__).parent / "golden" / "tetrahedron.json"
    assert out.strip() == golden.read_bytes().decode()


def test_config_custom_witness(tmp_path, capsys):
    from liepar.catalog import FlagSpec, flag_stabilizer, gl
    from liepar.config import (incidence_report, project_configuration,
                               report_json, simplex_configuration)
    from liepar.ratmat import Subspace

    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    spec = {"algebra": ["gl", 3], "points": points, "center": [[1, 1, 1]]}
    f = tmp_path / "witness.json"
    f.write_text(json.dumps(spec))
    code, out = run(capsys, ["config", "@%s" % f])
    data = json.loads(out)
    assert code == 0
    # the quotient line only retains one type: the three frame points
    assert data["types"] == ["1"]
    assert len(data["elements"]["1"]) == 3
    # gl(3) carries no form: the center's stabilizer is the formless one
    g = gl(3)
    center = Subspace.from_vectors(3, [(1, 1, 1)])
    q = flag_stabilizer(g, FlagSpec(3, [center]))
    proj = project_configuration(q, simplex_configuration(g, points))
    assert out == report_json(incidence_report(proj)) + "\n"


def test_stdin_algebra(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"algebra": ["gl", 2]}))
    )
    code, out = run(capsys, ["make", "-"])
    assert code == 0 and json.loads(out)["dim"] == 4


def test_space_from_file(tmp_path, capsys):
    f = tmp_path / "space.json"
    f.write_text(json.dumps({"vectors": json.loads(UPPER2)}))
    code, out = run(capsys, ["check", "gl:2", "--space", "@%s" % f])
    assert code == 0 and json.loads(out)["parabolic"] is True


@pytest.mark.parametrize("argv, stdin, named", [
    (["make", "sl:1"], None, "n must be >= 2"),
    (["check", "gl:2", "--space", "[[1,2"], None, "--space"),
    (["check", "gl:2", "--space", "@{tmp}/missing.json"], None, "--space"),
    (["check", "gl:2", "--space", "[[1,2]]"], None, "--space"),
    (["building", "--model", "A:x"], None, "--model"),
    (["config", '{"algebra": 5, "center": []}'], None, "witness"),
    (["config", '{"algebra": [], "center": []}'], None, "witness"),
    (["make", "-"], '{"algebra": []}', "stdin"),
    (["make", "-"], '{"algebra": 5}', "stdin"),
    # 0.1 as a JSON float is binary; only "1/10" or "0.1" is exact
    (["check", "gl:2", "--space", "[[0.1,1,0,0]]"], None, "--space: 0.1"),
    (["config", '{"algebra": ["gl", 2], "points": [[1, 0], [0, 1.5]],'
                ' "center": [[1, 1]]}'], None, "witness points: 1.5"),
    (["config", '{"algebra": ["gl", 2], "points": ["10", "01"],'
                ' "center": [[1, 1]]}'], None, "witness points"),
    # so(3,2) pairs e0, e1 and e2, e3 hyperbolically: Q(e0 + e1) = 2
    (["config", '{"algebra": ["so", 3, 2], "planes": [[[1, 0, 0, 0, 0],'
                ' [0, 1, 0, 0, 0]], [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]],'
                ' "center": [[1, 1, 0, 0, 0]]}'], None,
     "flag member not isotropic"),
    (["check", "gl:2", "--space", "@{tmp}/latin1.json"], None,
     "--space: {tmp}/latin1.json is not UTF-8"),
    (["make", "-"], "closed", "stdin"),
    # usage errors: argparse would print to stderr and exit 2
    (["make"], None, "required: algebra"),
    (["bogus"], None, "invalid choice: 'bogus'"),
], ids=["catalog-rejects", "malformed-json", "missing-file",
        "wrong-length", "bad-model", "witness-algebra",
        "witness-empty-algebra", "stdin-empty-algebra", "stdin-algebra-int",
        "float-entry", "witness-float", "string-vector",
        "non-isotropic-center", "not-utf8-file",
        "closed-stdin", "missing-algebra", "unknown-verb"])
def test_bad_input_is_one_domain_error(tmp_path, capsys, monkeypatch,
                                       argv, stdin, named):
    if stdin is not None:
        # a process started with stdin closed has sys.stdin None
        monkeypatch.setattr("sys.stdin", None if stdin == "closed"
                            else io.StringIO(stdin))
    (tmp_path / "latin1.json").write_bytes("[[\"½\"]]".encode("latin-1"))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    named = named.replace("{tmp}", str(tmp_path))
    code, out = run(capsys, argv)
    assert code == 1
    # json.loads rejects anything after the first object
    data = json.loads(out)
    assert isinstance(data, dict) and data["error"] == "domain"
    # the message names the input (for sl:1 it is the catalog's own)
    assert named in data["message"]


def test_closed_stdout_exits_1_without_traceback():
    # the reader is gone before the first write, as with `| head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(liepar.__file__).parent.parent))
    with os.fdopen(write_end, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "liepar.cli", "building", "--model",
             "A:2", "--table"],
            stdout=out, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    assert proc.returncode == 1
    assert proc.stderr == b""  # no BrokenPipeError traceback


def test_selftest_reports_each_criterion_with_its_wall_time(capsys,
                                                            monkeypatch):
    from liepar import acceptance
    from liepar.errors import DomainError

    def slow():
        time.sleep(0.05)
        return True, "slept"

    def broken():
        raise DomainError("no answer")

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("slow", slow), ("broken", broken)])
    code, out = run(capsys, ["selftest"])
    first, second = out.splitlines()
    assert code == 1
    m = re.fullmatch(r"criterion 1 \(slow\): PASS - slept \[(\d+\.\d\d) s\]",
                     first)
    assert m and float(m.group(1)) >= 0.05
    assert re.fullmatch(r"criterion 2 \(broken\): FAIL - DomainError: no"
                        r" answer \[\d+\.\d\d s\]", second)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["make", "-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: liepar make")


@pytest.mark.parametrize("argv", [["make", "gl:2"],
                                  ["check", "gl:2", "--space", UPPER2]],
                         ids=["make", "check"])
def test_cold_make_and_check_load_neither_building_nor_rootdata(argv):
    code = ("import sys, liepar.cli\n"
            "code = liepar.cli.main(%r)\n"
            "print(code, sorted(m for m in ('liepar.building',"
            " 'liepar.rootdata') if m in sys.modules))" % argv)
    env = dict(os.environ,
               PYTHONPATH=str(Path(liepar.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


# the JSON options of each verb; selftest and config are too slow to fuzz
FUZZ_OPTIONS = {"make": [], "rootdata": [], "building": [],
                "check": ["--space"], "opposite": ["--space"],
                "levi": ["--space"], "weyl": ["--space"],
                "project": ["--p", "--q"], "delta": ["--p", "--q"]}
# valid algebras of dimension at most 10, with their dimensions
FUZZ_VALID = {"gl:1": 1, "gl:2": 4, "gl:3": 9, "sl:2": 3, "sl:3": 8,
              "so:1,1": 1, "so:2,1": 3, "so:2,2": 6, "so:3,1": 6,
              "so:3,2": 10}
FUZZ_INVALID = ["gl:0", "sl:1", "so:1,2", "sp:4", "gl", "gl:x", "",
                "so:3", "gl:2,2", "so:a,b"]
FUZZ_MALFORMED = ["[[1,2", "{", "", "null", "5", '"x"', "[1, 2]",
                  "[[0.5, 1]]", "[[true]]", '{"vectors": 3}',
                  '[["1/0"]]', "@/nonexistent/space.json"]


@st.composite
def fuzz_space(draw, dim):
    """Malformed JSON, or vectors of the algebra's dimension (of another
    catalog dimension now and then): none, a few small rational ones,
    or the whole space."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(FUZZ_MALFORMED))
    n = dim if dim and draw(st.integers(0, 3)) else \
        draw(st.sampled_from(sorted(set(FUZZ_VALID.values()))))
    if draw(st.booleans()):
        vecs = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        entry = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2",
                                                              "-1/3"]))
        vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             max_size=3))
    return json.dumps(vecs if draw(st.booleans()) else {"vectors": vecs})


@st.composite
def fuzz_argv(draw):
    verb = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [verb]
    if draw(st.integers(0, 7)):
        argv.append(draw(st.one_of(st.sampled_from(sorted(FUZZ_VALID)),
                                   st.sampled_from(FUZZ_INVALID))))
    dim = FUZZ_VALID.get(argv[-1])
    for opt in FUZZ_OPTIONS[verb]:
        if draw(st.integers(0, 7)):
            argv += [opt, draw(fuzz_space(dim))]
    if not draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(["--bogus", "extra"])))
    return argv


@given(fuzz_argv())
@settings(max_examples=60, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2_with_one_json_object(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    # json.loads rejects anything after the first object
    assert isinstance(json.loads(out.getvalue()), dict)
