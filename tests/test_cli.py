import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from myctheta import DomainError, certificates, cli, graphs, invariants, symmetry
from myctheta import theta as theta_mod

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"
SRC = Path(__file__).resolve().parent.parent / "src"


def load_schema(name):
    with open(SCHEMAS / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_validator(name):
    schema = load_schema(name)
    registry = None
    try:
        from referencing import Registry, Resource

        resources = []
        for p in SCHEMAS.glob("*.schema.json"):
            with open(p, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            resources.append((doc["$id"], Resource.from_contents(doc)))
            resources.append((p.name, Resource.from_contents(doc)))
        registry = Registry().with_resources(resources)
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        return jsonschema.Draft202012Validator(schema)


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_grammar():
    g = graphs.parse_family("cycle:5")
    assert g.n == 5 and g.m == 5
    m = graphs.parse_family("mycielski:complete:3:r=2")
    assert m.n == 7 and m.m == 12
    p = graphs.parse_family("power:cycle:5:t=2")
    assert p.n == 25
    tower = graphs.parse_family("mycielski:power:complete:2:t=2:r=3")
    assert tower.n == 3 * 4 + 1
    t = graphs.parse_family("tournament:3")
    assert isinstance(t, graphs.Digraph)
    from myctheta import DomainError

    for bad in ("", "cycle", "unknown:3", "power:cycle:5", "cycle:5:r=2"):
        with pytest.raises(DomainError):
            graphs.parse_family(bad)


@pytest.mark.parametrize("spec, message", [
    ("cycle:1_0", "bad size '1_0' for family 'cycle'"),
    ("cycle:\uff15", "bad size '\uff15' for family 'cycle'"),
    ("cycle: 5", "bad size ' 5' for family 'cycle'"),
    ("power:cycle:5:t=0_2", "bad parameter token 't=0_2'"),
    ("mycielski:cycle:5:r=\uff12", "bad parameter token 'r=\uff12'"),
])
def test_family_spec_takes_loadtxt_integers_only(spec, message):
    # the integer grammar of the edge-list format, where int() would take these
    with pytest.raises(DomainError) as info:
        graphs.parse_family(spec)
    assert str(info.value) == message
    assert graphs.parse_family("power:cycle:+05:t=+2") == graphs.or_power(graphs.cycle_graph(5), 2)


@pytest.mark.parametrize("name", sorted(graphs._FAMILIES))
def test_every_family_name_parses_to_its_generator(name):
    # the spec's base names are graphs._FAMILIES itself, so a family is added in one place
    assert graphs.parse_family(f"{name}:5") == graphs.generate(name, 5)


def test_deeply_nested_family_spec_stops_at_the_vertex_bound(capsys):
    # wrappers are applied in a loop, so 1500 of them stop at the vertex bound
    # with one line, not at the recursion limit with a traceback
    code, out, err = run_cli(["gen", "--family", "mycielski:" * 1500 + "cycle:5"], capsys)
    assert (code, out, err) == (2, "", "error: Mycielskian needs 6143 vertices, exceeding the bound 4096\n")


def test_certify_beyond_the_bound_exits_2_before_solving(capsys):
    # M(C8^4) needs 8193 vertices: refused before the theta solve, not after it
    start = time.perf_counter()
    code, out, err = run_cli(["certify", "--family", "power:cycle:8:t=4"], capsys)
    assert (code, out, err) == (2, "", "error: Mycielskian needs 8193 vertices, exceeding the bound 4096\n")
    assert time.perf_counter() - start < 2


def test_bad_integers_exit_2_with_their_message(tmp_path, capsys):
    path = tmp_path / "bad_header.edges"
    path.write_text("1_0 1\n0 1\n", encoding="utf-8")
    for source, message in ((["--family", "cycle:1_0"], "bad size '1_0' for family 'cycle'"),
                            (["--edges", str(path)], "bad header '1_0 1'")):
        code, out, err = run_cli(["gen", *source], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (["invariant", "--which", "omega", "--family", "cycle:5", "--budget", "{}"], "--budget"),
    (["invariant", "--which", "power-bound", "--family", "cycle:5", "--power", "{}"], "--power"),
    (["construct", "--lifted-clique", "{}"], "--lifted-clique"),
    (["construct", "--transitive-clique", "{}"], "--transitive-clique"),
    (["construct", "--no-lift-check", "3", "{}", "2"], "--no-lift-check"),
    (["construct", "--no-lift-check", "3", "3", "2", "--budget", "{}"], "--budget"),
    (["report", "--family", "cycle:5", "--max-power", "{}"], "--max-power"),
    (["report", "--family", "cycle:5", "--budget", "{}"], "--budget"),
])
@pytest.mark.parametrize("token", ["1_0", "１", " 2"])
def test_integer_flags_take_loadtxt_integers_only(argv, flag, token, capsys):
    # the integer grammar of the edge-list format, where int() would take these
    code, out, err = run_cli([a.format(token) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.rstrip("\n").endswith(f"error: argument {flag}: invalid integer value: {token!r}")


def test_integer_flags_take_a_sign():
    args = cli.build_parser().parse_args(
        ["construct", "--no-lift-check", "+3", "03", "2", "--budget", "+10"])
    assert args.no_lift_check == [3, 3, 2] and args.budget == 10


def test_family_grammar_never_leaks_raw_errors():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from myctheta import DomainError, graphs as graphs_mod

    @settings(max_examples=300)
    @given(st.text(alphabet="abcxyz:=0123456789 power mycielski cycle", max_size=40))
    def fuzz(spec):
        try:
            g = graphs.parse_family(spec)
        except DomainError:
            return
        assert isinstance(g, (graphs_mod.Graph, graphs_mod.Digraph))

    fuzz()


def test_edgelist_parser_never_leaks_raw_errors():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from myctheta import DomainError, graphs as graphs_mod

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789 directed\n-", max_size=60))
    def fuzz(text):
        try:
            g = graphs_mod.parse_edgelist(text)
        except DomainError:
            return
        assert isinstance(g, (graphs_mod.Graph, graphs_mod.Digraph))

    fuzz()


def test_edgelist_parser_reads_a_stream_as_its_text(tmp_path):
    # the text, a StringIO with the newline handling of a file, and a real
    # file (read from its path) give the same graph or the same message
    import io

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from myctheta import DomainError, graphs as graphs_mod

    def outcome(source):
        try:
            return graphs_mod.parse_edgelist(source)
        except DomainError as exc:
            return str(exc)

    # near-valid lists too, so that some texts are graphs; every character
    # comes from the alphabet of the free text
    token = st.sampled_from(["0", "1", "2", "3", "+1", "007", "-0", "-1", "1_0", "directed", ""])
    gap = st.sampled_from([" ", "\t", " \t "])
    end = st.sampled_from(["\n", "\r", "\r\n", "\n\n", "\r\r\n", ""])

    @st.composite
    def edge_lists(draw):
        rows = draw(st.lists(st.tuples(token, gap, token, end), max_size=5))
        head = f"{draw(st.integers(0, 4))} {len(rows) - draw(st.integers(0, 1))}"
        return (draw(end) + head + draw(st.sampled_from(["", " directed"])) + draw(end)
                + "".join(map("".join, rows)))

    path = tmp_path / "fuzz.edges"

    @settings(max_examples=300)
    @given(st.one_of(st.text(alphabet="0123456789 directed\n\r\t-+_", max_size=60), edge_lists()))
    def fuzz(text):
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as fh:
            from_file = outcome(fh)
        assert outcome(text) == outcome(io.StringIO(text, newline=None)) == from_file

    fuzz()


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c5.edges"
    code, _, _ = run_cli(["gen", "--family", "cycle:5", "--out", str(out_file)], capsys)
    assert code == 0
    g = graphs.parse_edgelist(out_file.read_text())
    assert g == graphs.cycle_graph(5)
    code, payload, _ = run_cli(
        ["invariant", "--edges", str(out_file), "--which", "omega"], capsys
    )
    assert code == 0
    assert json.loads(payload)["omega"]["size"] == 2


def test_invariant_chi_f_beyond_thirty_vertices(capsys):
    # M(M(M(C5))) has 47 vertices; chi_f follows the x + 1/x chain from 5/2
    code, payload, _ = run_cli(
        ["invariant", "--which", "chi-f", "--family", "mycielski:mycielski:mycielski:cycle:5"], capsys
    )
    assert code == 0
    assert json.loads(payload)["chi_f"] == "969581/272890"


def test_report_cycle5_json(capsys):
    code, payload, _ = run_cli(
        ["report", "--family", "cycle:5", "--format", "json", "--max-power", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(payload)
    make_validator("report.schema.json").validate(doc)
    assert doc["omega"]["size"] == 2
    assert doc["chi_f"] == "5/2"
    assert doc["chi"] == {"lo": 3, "hi": 3, "exhausted": True, "nodes": 5}  # refuting k = 2
    assert abs(doc["theta"] - math.sqrt(5)) < 1e-4
    assert abs(doc["lower_bounds"][1]["value"] - math.sqrt(5)) < 1e-9


def test_report_clique_entries_are_the_invariant_schemas(capsys):
    # report.schema.json refers to invariant.schema.json for its clique and chi
    # entries, so the one rendering of each is checked in full in either document
    code, payload, _ = run_cli(["report", "--family", "cycle:5", "--max-power", "1"], capsys)
    assert code == 0
    validator = make_validator("report.schema.json")
    validator.validate(json.loads(payload))
    for entry in (lambda d: d["omega"], lambda d: d["lower_bounds"][0], lambda d: d["chi"]):
        for change in (lambda e: e.pop("nodes"), lambda e: e.update(extra=1)):
            doc = json.loads(payload)
            change(entry(doc))
            with pytest.raises(jsonschema.ValidationError):
                validator.validate(doc)


def test_report_attaches_construction(capsys):
    code, payload, _ = run_cli(
        ["report", "--family", "mycielski:complete:3", "--format", "json",
         "--max-power", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(payload)
    make_validator("report.schema.json").validate(doc)
    assert doc["construction"]["size"] == 28
    assert abs(doc["construction"]["bound"] - 28 ** (1 / 3)) < 1e-9


def test_report_skips_construction_beyond_vertex_bound(capsys):
    # the construction for M(K6) would have 6^6 + 1 vertices, above the
    # bound; for n = 1 it is not defined, since it needs n >= 2
    for spec in ("mycielski:complete:6", "mycielski:complete:1", "mycielski:tournament:1"):
        code, payload, err = run_cli(
            ["report", "--family", spec, "--format", "json", "--max-power", "1"],
            capsys,
        )
        assert code == 0 and err == ""
        doc = json.loads(payload)
        make_validator("report.schema.json").validate(doc)
        assert doc["construction"] is None
        assert doc["errors"] == {}


def test_myc_theta_text(capsys):
    code, payload, _ = run_cli(["myc-theta", "--t", "3"], capsys)
    assert code == 0
    assert payload.splitlines()[0] == "m = 3.06417777248"
    code, payload, _ = run_cli(["myc-theta", "--t", "2", "--format", "json"], capsys)
    doc = json.loads(payload)
    assert abs(doc["m"] - math.sqrt(5)) < 1e-12
    assert len(doc["discarded_branches"]) == 2


def test_myc_theta_domain_error(capsys):
    code, _, err = run_cli(["myc-theta", "--t", "1.2"], capsys)
    assert code == 2 and "t >= 2" in err


@pytest.mark.parametrize("t", ["inf", "nan", "1e110", "1e308"])
def test_myc_theta_rejects_non_finite(t, capsys):
    # above about 5.6e102 the cubic residual's t^3 overflows a float
    code, out, err = run_cli(["myc-theta", "--t", t, "--format", "json"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err and len(err.splitlines()) == 1


def test_unreadable_edge_file_exit_code(tmp_path, capsys):
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "missing.edges", tmp_path, binary):
        code, out, err = run_cli(["theta", "--edges", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read edge list") and err.count("\n") == 1


@pytest.mark.parametrize("good_lines", [0, 60_000])
def test_undecodable_edge_file_body_exit_code(good_lines, tmp_path, capsys):
    # invalid UTF-8 after a valid header, at the start of the body and past
    # the first chunks the reader decodes: unreadable, not a bad edge line
    path = tmp_path / "tail.edges"
    path.write_bytes(f"3 {good_lines + 1}\n".encode() + b"0 1\n" * good_lines + b"1 \xff\xfe\n")
    code, out, err = run_cli(["gen", "--edges", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read edge list") and err.count("\n") == 1


@pytest.mark.parametrize("token", ["1_0", "\uff11"])
def test_edge_file_with_a_token_int_would_take_names_the_line(token, tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text(f"3 1\n{token} 2\n", encoding="utf-8")
    code, out, err = run_cli(["gen", "--edges", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad edge line '{token} 2'\n"


def test_out_write_failure_exit_code(tmp_path, capsys):
    for path in (tmp_path / "missing" / "c5.edges", tmp_path):
        code, out, err = run_cli(["gen", "--family", "cycle:5", "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1


def _cli_env():
    """The environment of a `python -m myctheta.cli` child, with buffered stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_pipe_exits_2_with_one_line():
    # the reader stops after one line, as `| head -1` does; the 275 kB of
    # C7^3 do not fit in the pipe, so a write meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "myctheta.cli", "gen", "--family", "power:cycle:7:t=3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env())
    try:
        assert proc.stdout.readline() == "343 37387\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    assert err == "error: cannot write standard output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["gen", "--family", "cycle:5"],
    ["theta", "--family", "cycle:5"],
    ["gen", "--family", "power:cycle:7:t=3"],
])
def test_full_stdout_exits_2_with_one_line(argv):
    # the short outputs fail only at the flush, the long one at a write
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "myctheta.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


def test_gen_to_stdout_and_to_out_agree(tmp_path, capsys):
    out_file = tmp_path / "g.edges"
    for spec in ("power:cycle:5:t=2", "power:mycielski:tournament:3:t=2"):
        code, out, _ = run_cli(["gen", "--family", spec], capsys)
        assert code == 0
        assert run_cli(["gen", "--family", spec, "--out", str(out_file)], capsys)[0] == 0
        assert out_file.read_bytes() == out.encode()


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_report_rejects_bad_tol(tol, capsys):
    code, out, err = run_cli(
        ["report", "--family", "cycle:5", "--max-power", "1", "--tol", tol], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: tol must lie") and err.count("\n") == 1


def test_theta_json_schema(capsys):
    code, payload, _ = run_cli(
        ["theta", "--family", "cycle:5", "--tol", "1e-6"], capsys
    )
    assert code == 0
    doc = json.loads(payload)
    make_validator("theta.schema.json").validate(doc)
    assert abs(doc["value"] - math.sqrt(5)) < 1e-5


@pytest.mark.parametrize("spec, lifted", [("power:cycle:7:t=2", {"base_n": 7, "t": 2}),
                                          ("cycle:7", None)])
def test_theta_json_says_when_it_was_lifted(spec, lifted, capsys):
    # a recognised power carries "lifted"; any other graph's document has no such key
    code, payload, _ = run_cli(["theta", "--family", spec], capsys)
    assert code == 0
    doc = json.loads(payload)
    make_validator("theta.schema.json").validate(doc)
    assert doc.get("lifted") == lifted


@pytest.mark.parametrize("family", ["cycle:5", "tournament:3"])
@pytest.mark.parametrize("which", ["omega", "omega-s", "omega-tr", "chi", "chi-f", "power-bound", "all"])
def test_invariant_json_schema(family, which, capsys):
    # each --which value validates, or is refused with exit 2 on the other kind of graph
    directed = family.startswith("tournament")
    code, payload, err = run_cli(["invariant", "--family", family, "--which", which], capsys)
    if which in (("omega", "chi", "chi-f") if directed else ("omega-s", "omega-tr")):
        kind = "an undirected graph" if directed else "a digraph"
        assert (code, payload) == (2, "") and err.startswith("error: ") and err.endswith(f" needs {kind}\n")
        return
    assert code == 0
    doc = json.loads(payload)
    make_validator("invariant.schema.json").validate(doc)
    assert doc["directed"] is directed
    key = {"omega-s": "omega_s", "omega-tr": "omega_tr", "chi-f": "chi_f", "power-bound": "lower_bound"}
    assert which == "all" or key.get(which, which) in doc


@pytest.mark.parametrize("t", ["2", "3", "10.5"])
def test_myc_theta_json_schema(t, capsys):
    code, payload, _ = run_cli(["myc-theta", "--t", t, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(payload)
    make_validator("myc-theta.schema.json").validate(doc)
    assert doc["t"] == float(t)


def test_certify_k3(capsys):
    code, payload, _ = run_cli(["certify", "--family", "complete:3"], capsys)
    assert code == 0
    doc = json.loads(payload)
    make_validator("certify.schema.json").validate(doc)
    assert doc["checks"]["block_spectrum"] is True
    assert doc["checks"]["inequalities"] is True
    assert doc["checks"]["lift_ok"] is True
    assert abs(doc["m_formula"] - 4 * math.cos(2 * math.pi / 9)) < 1e-4


def test_certify_exits_1_when_the_lift_check_fails(capsys, monkeypatch):
    # the upper-bound direction counts as the other three checks do, and the
    # full document is still printed
    monkeypatch.setattr(certificates, "verify_lift", lambda g, lifted: 1.0)
    code, payload, _ = run_cli(["certify", "--family", "cycle:5"], capsys)
    assert code == 1
    doc = json.loads(payload)
    make_validator("certify.schema.json").validate(doc)
    assert doc["checks"]["lift_ok"] is False
    assert doc["checks"]["block_spectrum"] is True and doc["checks"]["inequalities"] is True


@pytest.mark.parametrize("check, fake", [
    (None, None),
    ("verify_lift", lambda g, lifted: 1.0),
    ("verify_block_spectrum", lambda cert: certificates.BlockSpectrumReport(False, 1.0, (0.0, 1.0))),
])
def test_certify_verdict_is_the_exit_code(check, fake, capsys, monkeypatch):
    # the library's verdict and the CLI's exit code are one decision on one document
    if check is not None:
        monkeypatch.setattr(certificates, check, fake)
    doc, ok = certificates.certify(graphs.cycle_graph(5), 1e-7)
    code, payload, _ = run_cli(["certify", "--family", "cycle:5"], capsys)
    assert ok is (check is None)
    assert code == (0 if ok else 1)
    assert payload == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_construct_lifted_extend(capsys):
    code, payload, _ = run_cli(
        ["construct", "--lifted-clique", "2", "--extend"], capsys
    )
    assert code == 0
    doc = json.loads(payload)
    make_validator("construction.schema.json").validate(doc)
    assert doc["size"] == 5 and doc["verified"] is True
    assert abs(doc["bound"] - math.sqrt(5)) < 1e-12


@pytest.mark.parametrize("flags, message", [
    ([], "one of the arguments --lifted-clique --transitive-clique --no-lift-check is required"),
    (["--lifted-clique", "2", "--transitive-clique", "2"],
     "argument --transitive-clique: not allowed with argument --lifted-clique"),
])
def test_construct_takes_exactly_one_construction(flags, message, capsys):
    # no construction or two of them: one usage line and exit 2, nothing built
    assert run_cli(["construct", *flags], capsys) == (2, "", f"error: {message}\n")


def test_construct_transitive_schema(capsys):
    code, payload, _ = run_cli(["construct", "--transitive-clique", "2"], capsys)
    assert code == 0
    doc = json.loads(payload)
    make_validator("construction.schema.json").validate(doc)
    assert doc["directed"] is True and doc["size"] == 5


def test_report_digraph_schema(capsys):
    code, payload, _ = run_cli(
        ["report", "--family", "mycielski:tournament:2", "--format", "json",
         "--max-power", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(payload)
    make_validator("report.schema.json").validate(doc)
    assert doc["directed"] is True
    assert doc["omega"] is None
    assert doc["omega_tr"]["size"] == 2
    assert abs(doc["lower_bounds"][1]["value"] - math.sqrt(5)) < 1e-9
    assert doc["construction"]["directed"] is True


def test_construct_no_lift_check(capsys):
    code, payload, _ = run_cli(
        ["construct", "--no-lift-check", "3", "3", "1"], capsys
    )
    assert code == 0
    assert json.loads(payload)["no_such_clique"] is True


@pytest.mark.parametrize("n, r, t", [(3, 3, 3), (5, 3, 3)])
def test_construct_no_lift_check_at_scale(n, r, t, capsys):
    # |H| = 513 and 2375 power vertices; the search ends within 6 nodes
    start = time.monotonic()
    code, payload, _ = run_cli(["construct", "--no-lift-check", str(n), str(r), str(t)], capsys)
    assert time.monotonic() - start < 10
    assert code == 0
    assert json.loads(payload) == {"n": n, "r": r, "t": t, "no_such_clique": True}


@pytest.mark.parametrize("argv, schema", [
    (["theta", "--family", "cycle:5"], "theta"),
    (["theta", "--family", "cycle:5", "--verbose"], "theta"),
    (["invariant", "--family", "cycle:5"], "invariant"),
    (["myc-theta", "--t", "3", "--format", "json"], "myc-theta"),
    (["certify", "--family", "cycle:5"], "certify"),
    (["construct", "--lifted-clique", "2"], "construction"),
    (["construct", "--transitive-clique", "2"], "construction"),
    (["construct", "--no-lift-check", "3", "3", "2"], "construction"),
    (["report", "--family", "cycle:5", "--format", "json"], "report"),
])
def test_every_json_document_has_one_layout(argv, schema, capsys):
    # one emitter: two-space indent, sorted keys, one trailing newline, and its schema holds
    code, payload, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(payload)
    assert payload == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    make_validator(f"{schema}.schema.json").validate(doc)


def test_report_csv_prints_an_integer_chi_f_whole(capsys):
    # chi_f(K3) = 3 is the Fraction 3, printed "3"; the JSON document holds "3/1"
    code, payload, _ = run_cli(["report", "--family", "complete:3", "--format", "csv"], capsys)
    assert code == 0
    header, row = payload.splitlines()
    assert dict(zip(header.split(","), row.split(","))) == {
        "n": "3", "m": "3", "directed": "False", "omega": "3", "theta": "3",
        "chi_f": "3", "chi": "3", "best_lower_bound": "3"}


@pytest.mark.parametrize("family", ["cycle:7", "mycielski:cycle:5", "power:cycle:5:t=2"])
def test_certify_at_a_loose_tol_still_extracts(family, capsys):
    # theta is solved at min(tol, EXTRACT_TOL), so the coloring can always be extracted;
    # the solve at tol 1e-3 itself stopped above 1e-6 on these three graphs
    code, payload, _ = run_cli(["certify", "--family", family, "--tol", "1e-3"], capsys)
    assert code == 0
    checks = json.loads(payload)["checks"]
    assert all(checks[k] is True for k in ("ratio_matches_formula", "block_spectrum", "inequalities", "lift_ok"))


@pytest.mark.parametrize("argv, message", [
    (["invariant", "--family", "cycle:5", "--which", "omega", "--budget", "1_0"],
     "argument --budget: invalid integer value: '1_0'"),
    ([], "the following arguments are required: command"),
    (["construct", "--no-lift-check", "3", "3"], "argument --no-lift-check: expected 3 arguments"),
])
def test_usage_errors_are_one_line(argv, message, capsys):
    # argparse's usage errors read as a DomainError does: one line, exit 2
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["gen", "invariant", "theta", "certify", "report"])
@pytest.mark.parametrize("sources, message", [
    ([], "one of the arguments --family --edges is required"),
    (["--family", "cycle:5", "--edges", "c5.edges"], "argument --edges: not allowed with argument --family"),
])
def test_graph_commands_take_exactly_one_source(command, sources, message, capsys):
    # no graph source or two of them: one usage line and exit 2, nothing read
    assert run_cli([command, *sources], capsys) == (2, "", f"error: {message}\n")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["construct", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: myctheta construct")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_flag_between_calls(capsys, monkeypatch):
    # every main call parses with the one cached parser: a flag given in one
    # call must not become the default of the next
    seen = []
    load_graph = cli._load_graph
    monkeypatch.setattr(cli, "_load_graph", lambda args: seen.append(args) or load_graph(args))
    argv = ["invariant", "--family", "cycle:5", "--which", "omega"]
    assert run_cli(argv + ["--budget", "5"], capsys)[0] == 0
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["omega"]["size"] == 2
    assert [args.budget for args in seen] == [5, None]


def test_usage_error_leaves_the_shared_parser_usable(capsys):
    argv = ["invariant", "--family", "cycle:5", "--which", "omega"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["omega"]["size"] == 2
    assert run_cli(argv + ["--budget", "1_0"], capsys)[0] == 2
    assert run_cli(["invariant", "--which", "bogus"], capsys)[0] == 2
    assert run_cli(argv, capsys) == (0, out, "")


def test_construct_requires_one_mode(capsys):
    code, _, err = run_cli(["construct"], capsys)
    assert code == 2


def test_unknown_family_exit_code(capsys):
    code, _, err = run_cli(["report", "--family", "dodecahedron:1"], capsys)
    assert code == 2 and "unknown" in err


def test_report_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "verify_clique", lambda g, witness: False)
    code, out, err = run_cli(["report", "--family", "cycle:5"], capsys)
    assert code == 1 and out == ""
    assert err == "internal error: clique witness failed re-verification\n"


def test_report_theta_too_low_exits_1(capsys, monkeypatch):
    real = theta_mod.theta_bar
    monkeypatch.setattr(theta_mod, "theta_bar",
                        lambda g, tol: dataclasses.replace(real(g, tol), lower=1.5, upper=1.5))
    code, out, err = run_cli(["report", "--family", "mycielski:tournament:3", "--max-power", "2"], capsys)
    assert code == 1 and out == ""
    assert err == "internal error: verified clique of size 9 exceeds its certified cap 2\n"


def test_report_closed_by_in_json(capsys):
    code, payload, _ = run_cli(
        ["report", "--family", "mycielski:tournament:3", "--max-power", "3"], capsys
    )
    assert code == 0
    doc = json.loads(payload)
    make_validator("report.schema.json").validate(doc)
    assert doc["omega_tr"]["closed_by"] == "search" and doc["omega"] is None
    assert [(b["clique_size"], b["closed_by"]) for b in doc["lower_bounds"]] == [
        (3, "search"), (9, "theta"), (28, "theta")]


@pytest.mark.parametrize("argv, message", [
    (["invariant", "--which", "omega", "--family", "cycle:5", "--budget", "-1"],
     "node budget must be at least 1, got -1"),
    (["report", "--family", "cycle:5", "--budget", "0"], "node budget must be at least 1, got 0"),
    (["construct", "--no-lift-check", "3", "3", "1", "--budget", "0"],
     "node budget must be at least 1, got 0"),
    (["report", "--family", "cycle:5", "--max-power", "-1"],
     "max power must be at least 0, got -1"),
])
def test_bad_counts_exit_2(argv, message, capsys):
    # the library owns each rule, so the message is the library's
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["invariant", "--which", "chi-f", "--family", "cycle:5", "--budget", "0"],
    ["construct", "--lifted-clique", "2", "--budget", "0"],
    ["construct", "--transitive-clique", "2", "--budget", "-1"],
    ["invariant", "--which", "omega", "--family", "cycle:5", "--power", "-5"],
])
def test_a_flag_the_mode_does_not_use_is_ignored(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "") and json.loads(out)


def test_omega_tr_beyond_recursion_limit(capsys):
    code, payload, _ = run_cli(
        ["invariant", "--which", "omega-tr", "--family", "tournament:1100"], capsys
    )
    assert code == 0
    assert json.loads(payload)["omega_tr"]["size"] == 1100


def test_report_with_errors_exits_2(tmp_path, capsys):
    edges = tmp_path / "empty.edges"
    edges.write_text("0 0\n")
    code, out, err = run_cli(["report", "--edges", str(edges), "--format", "json"], capsys)
    doc = json.loads(out)
    make_validator("report.schema.json").validate(doc)
    assert code == 2 and doc["errors"]
    assert err == f"error: report incomplete: {', '.join(doc['errors'])}\n"
    assert err.count("\n") == 1


def test_size_guard_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "10")
    code, _, err = run_cli(["gen", "--family", "power:cycle:5:t=2"], capsys)
    assert code == 2 and "bound" in err
    monkeypatch.setenv("MYCTHETA_MAX_VERTICES", "40")
    code, _, _ = run_cli(["gen", "--family", "power:cycle:5:t=2"], capsys)
    assert code == 0


def test_report_roundtrip_through_edgelist(tmp_path, capsys):
    # the report of a gen'd file is the report of its family spec: the
    # construction, and the symmetry the searches prune by, come from the graph
    out_file = tmp_path / "mk2.edges"
    run_cli(["gen", "--family", "mycielski:complete:2", "--out", str(out_file)], capsys)
    _, from_family, _ = run_cli(
        ["report", "--family", "mycielski:complete:2", "--format", "json",
         "--max-power", "2"],
        capsys,
    )
    _, from_file, _ = run_cli(
        ["report", "--edges", str(out_file), "--format", "json", "--max-power", "2"],
        capsys,
    )
    a, b = json.loads(from_family), json.loads(from_file)
    assert a == b
    assert a["construction"]["size"] == 5 and a["lower_bounds"][1]["nodes"] == 6


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "power:cycle:5:t=7000"],
    ["gen", "--family", "power:cycle:5:t=30000000"],
    ["construct", "--lifted-clique", "2000"],
    ["construct", "--no-lift-check", "3", "3", "100000000"],
    ["report", "--family", "complete:2", "--max-power", "5000"],
    ["report", "--family", "complete:2", "--max-power", "20000"],
    ["construct", "--no-lift-check", "3", "3", "4"],
])
def test_size_checks_never_build_the_power(argv, capsys):
    # n ** t is never built for a power far beyond the vertex bound, nor
    # formatted into a message; a report stops at the first power beyond it.
    # Unchecked, these raised a ValueError or ran for more than 30 s.
    start = time.monotonic()
    code, out, err = run_cli(argv, capsys)
    assert time.monotonic() - start < 10
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "report":
        assert err == "error: report incomplete: lower_bound_k13\n"
        assert [b["k"] for b in json.loads(out)["lower_bounds"]] == list(range(1, 13))


def test_report_powers_of_one_vertex(capsys):
    # K1^k is K1 for every k, so the report's bounds end at k = 1 however high the power
    start = time.monotonic()
    code, out, err = run_cli(["report", "--family", "complete:1", "--max-power", "1000000000"], capsys)
    assert time.monotonic() - start < 2
    assert code == 0 and err == ""
    assert [(b["k"], b["clique_size"]) for b in json.loads(out)["lower_bounds"]] == [(1, 1)]
    # lifting generators to 65 coordinates once raised a ValueError
    k1 = graphs.parse_family("complete:1")
    bound = invariants.capacity_lower_bound(k1, 100)
    assert (bound.k, bound.clique.size, bound.exhausted) == (100, 1, True)
    assert len(symmetry.generators(graphs.or_power(k1, 100), [0])) == 0


def test_report_deterministic(capsys):
    _, first, _ = run_cli(["report", "--family", "cycle:5", "--format", "json"], capsys)
    _, second, _ = run_cli(["report", "--family", "cycle:5", "--format", "json"], capsys)
    assert first == second


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "myctheta.cli", "myc-theta", "--t", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m = 2.2360679775")


@pytest.mark.parametrize("argv, text", [
    (["invariant", "--family", "cycle:5"],
     "vertices = 5\nedges = 5\nomega = 2\nchi_f = 5/2\nchi in [3, 3]\n"),
    (["invariant", "--family", "tournament:3"], "vertices = 3\nedges = 3\nomega_s = 1\nomega_tr = 3\n"),
    (["invariant", "--family", "cycle:5", "--which", "power-bound"],
     "vertices = 5\nedges = 5\ncapacity lower bound k=2: 2.2360679775\n"),
    (["invariant", "--family", "power:cycle:5:t=4", "--which", "omega", "--budget", "100"],
     "vertices = 625\nedges = 170000\nomega = 19 (budget truncated)\n"),
    (["report", "--family", "cycle:5"],
     "vertices = 5\nedges = 5\nomega = 2\ncapacity lower bound k=1: 2\n"
     "capacity lower bound k=2: 2.2360679775\ntheta_bar = 2.2360679775\nchi_f = 5/2\nchi in [3, 3]\n"),
    (["report", "--family", "mycielski:tournament:3"],
     "vertices = 7\nedges = 12\nomega_s = 1\nomega_tr = 3\ncapacity lower bound k=1: 3\n"
     "capacity lower bound k=2: 3\nconstruction clique size 28, bound 3.03658897188\n"),
])
def test_invariant_and_report_text_print_values(argv, text, capsys):
    # both commands print their documents through one renderer: values, not reprs
    assert run_cli(argv + ["--format", "text"], capsys) == (0, text, "")


def test_cli_fuzz_ends_in_an_exit_code_and_one_line(tmp_path):
    # argv drawn from the real grammar: every subcommand, family specs, flag
    # values and small edge lists, each value good seven times in eight and
    # otherwise bad (a bad token, a value past its edge, a malformed file).
    # Every example exits 0, 1 or 2 with at most one stderr line, and JSON on
    # stdout validates. Sizes stay small (n <= 7, t <= 2, --max-power <= 2,
    # and no power of a power) so that each example ends well under a second
    import contextlib
    import io

    from hypothesis import given, settings
    from hypothesis import strategies as st

    validators = {command: make_validator(f"{schema}.schema.json") for command, schema in (
        ("invariant", "invariant"), ("theta", "theta"), ("myc-theta", "myc-theta"),
        ("certify", "certify"), ("construct", "construction"), ("report", "report"))}

    def pick(good, bad):
        return st.sampled_from(good * 7 * len(bad) + bad * len(good))

    params = {"": pick([""], [":junk"]), "mycielski:": pick(["", ":r=2", ":r=3"], [":r=0", ":r=x"]),
              "power:": pick([":t=1", ":t=2"], ["", ":t=0", ":t=-1", ":t=1_0"])}
    tol = pick(["1e-3", "1e-6", "1e-7", "1e-10"], ["1e-11", "1", "nan", "inf", "-1e-6", "x"])
    budget = pick(["1", "2", "1000", "+20"], ["0", "-1", "1_0", "x", ""])
    edge_path = tmp_path / "fuzz.edges"

    @st.composite
    def edge_file(draw):
        n = draw(st.integers(1, 7))
        rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
        rows = sorted({(u, v) for u, v in rows if u != v})
        head = f"{n} {len(rows)}" + draw(pick(["", " directed"], [" x", "1"]))
        data = (head + "\n" + "".join(f"{u} {v}\n" for u, v in rows)).encode()
        bad = [data[:-3], data.replace(b"0", b"1_0"), data.replace(b" ", b"  9 ", 1), b"\xff\xfe\n"]
        edge_path.write_bytes(draw(pick([data], bad)))
        return str(edge_path)

    @st.composite
    def argvs(draw):
        command = draw(pick(["gen", "invariant", "theta", "myc-theta", "certify", "construct", "report"],
                            ["bogus"]))
        wrap = draw(st.sampled_from(sorted(params)))
        spec = (wrap + draw(pick(["complete", "empty", "cycle", "path", "tournament"], ["wheel"])) + ":"
                + draw(pick(["1", "2", "3", "5", "7", "+3"], ["0", "-1", "x", "1_0"])) + draw(params[wrap]))
        source = draw(pick([["--family", spec], ["--family", spec], ["--edges", draw(edge_file())]],
                           [["--edges", str(tmp_path / "missing.edges")], []]))
        power = pick(["0", "1"] if wrap == "power:" else ["0", "1", "2"], ["-1", "x"])

        def flag(name, values):
            return draw(st.sampled_from([[], [name, draw(values)]]))

        if command == "myc-theta":
            return [command, "--t", draw(pick(["2", "2.5", "3", "10"], ["1", "-1", "nan", "inf", "1e308", "x"])),
                    *flag("--format", pick(["json", "text"], ["xml"]))]
        if command == "construct":
            n, t = pick(["3", "4"], ["2", "-1", "x"]), pick(["1", "2"], ["0", "-1"])
            what = draw(st.sampled_from([["--lifted-clique", draw(pick(["2", "3", "4"], ["-1", "0", "1", "x"]))],
                                         ["--transitive-clique", draw(pick(["2", "3"], ["-1", "0", "1", "x"]))],
                                         ["--no-lift-check", draw(n), draw(n), draw(t)]]))
            return [command, *what, *draw(st.sampled_from([[], ["--extend"]])), *flag("--budget", budget)]
        argv = [command, *source]
        if command == "invariant":
            argv += flag("--which", pick(["omega", "omega-s", "omega-tr", "chi", "chi-f", "power-bound", "all"],
                                         ["bogus"]))
            argv += flag("--power", power) + flag("--budget", budget)
            argv += flag("--format", pick(["json", "text"], ["xml"]))
        elif command in ("theta", "certify"):
            argv += flag("--tol", tol) + draw(st.sampled_from([[], ["--verbose"]]))
            if command == "theta":
                argv += flag("--format", pick(["json", "text"], ["xml"]))
        elif command == "report":
            argv += ["--max-power", draw(power)] + flag("--tol", tol) + flag("--budget", budget)
            argv += flag("--format", pick(["json", "csv", "text"], ["xml"]))
        return argv

    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def fuzz(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
        default = "text" if argv[0] == "myc-theta" else "json"
        if out and argv[0] in validators and (argv[argv.index("--format") + 1] if "--format" in argv
                                              else default) == "json":
            validators[argv[0]].validate(json.loads(out))

    fuzz()
