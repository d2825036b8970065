import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidcalc.links
from braidcalc.cli import main
from braidcalc.moves import ConjugateBy, Stabilize, tower_to_json
from braidcalc.words import parse_word


def run_cli(capsys, *args, env=None, monkeypatch=None):
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text(capsys):
    code, out, _ = run_cli(capsys, "invariants", "s1^5 s2^6 s1^8 s2^-1")
    assert code == 0
    assert out == "e=18, b=3, beta=15\n"


def test_invariants_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "s1 s2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"b": 3, "beta": -1, "e": 2, "word": "s1 s2"}


def test_invariants_env_default(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "invariants", "s1 s2",
        env={"BRAIDCALC_FORMAT": "json"}, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["beta"] == -1


def test_strand_override(capsys):
    code, out, _ = run_cli(capsys, "invariants", "s1", "--n", "4")
    assert code == 0
    assert out == "e=1, b=4, beta=-3\n"
    code, _, err = run_cli(capsys, "invariants", "s3", "--n", "2")
    assert code == 2
    assert err.startswith("error:")


def test_components_text(capsys):
    code, out, _ = run_cli(capsys, "components", "s1^3 s2^4 s1^-5 s2^-1")
    assert code == 0
    assert out.splitlines() == [
        "component 1: strands {1}, e=0, b=1, beta=-1",
        "component 2: strands {2,3}, e=-1, b=2, beta=-3",
        "lk(1,2) = 1",
        "beta_total = -2",
    ]


def test_conjugate_verb(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "s1 s2", "s2 s1")
    assert code == 0
    assert out.splitlines()[0] == "conjugate: true"
    code, out, _ = run_cli(capsys, "conjugate", "s1", "s1^-1", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conjugate"] is False
    assert payload["normal_form_1"] != payload["normal_form_2"]


def test_classify_verb(capsys):
    assert run_cli(capsys, "classify", "s1 s2")[1] == "unknot tag=(1,1)\n"
    assert run_cli(capsys, "classify", "s1^5 s2")[1] == "torus k=5 mu=1\n"
    assert run_cli(capsys, "classify", "s1^5 s2^8 s1^6 s2^-1")[1] == "generic unique\n"
    code, out, _ = run_cli(capsys, "classify", "s1^-7 s2^-1", "--format", "json")
    assert json.loads(out) == {"class": "torus", "k": -7, "mu": -1}


def test_classify_at_the_letter_cap(capsys):
    """The candidate classes are built as syllables, never as words one
    letter longer than the input."""
    for word in ("n=3 s1^1000000", "n=3 s1^-1000000"):
        assert run_cli(capsys, "classify", word) == (0, "generic unique\n", "")


def test_flype_verb(capsys):
    code, out, _ = run_cli(
        capsys, "flype", "--sign", "-1", "--P", "s1^3", "--R", "s1^4", "--Q", "s1^-5"
    )
    assert code == 0
    assert out.splitlines() == [
        "plus:  s1^3 s2^4 s1^-5 s2^-1",
        "minus: s1^3 s2^-1 s1^-5 s2^4",
        "component 1: beta_plus=-1 beta_minus=-3",
        "component 2: beta_plus=-3 beta_minus=-1",
    ]
    code, _, err = run_cli(capsys, "flype", "--P", "s1")
    assert code == 2 and "needs" in err


def test_flype_desc_file(capsys, tmp_path):
    desc = tmp_path / "move.json"
    desc.write_text(json.dumps({
        "kind": "flype",
        "params": {"sign": -1},
        "assignment": {"P": "s1^5", "R": "s1^6", "Q": "s1^8"},
    }))
    code, out, _ = run_cli(capsys, "flype", "--desc", str(desc), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["plus"] == "s1^5 s2^6 s1^8 s2^-1"
    assert payload["table"] == [[1, 15, 15]]


def test_tower_validate(capsys, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(tower_to_json(
        "transversal",
        parse_word("n=3 s1 s2"),
        (Stabilize(1), ConjugateBy(parse_word("n=4 s2"))),
    ))
    code, out, _ = run_cli(capsys, "tower-validate", str(path))
    assert code == 0
    assert out.splitlines()[0] == "ok: true"

    path.write_text(tower_to_json("transversal", parse_word("n=3 s1 s2"), (Stabilize(-1),)))
    code, out, _ = run_cli(capsys, "tower-validate", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert {"code": "illegal_move_for_mode", "step": 0} in payload["problems"]

    path.write_text("{broken")
    code, _, err = run_cli(capsys, "tower-validate", str(path))
    assert code == 2 and err.startswith("error: bad tower description")


TOWER_HEAD = '"initial_word": "n=3 s1 s2", "mode": "transversal"'
FLYPE_HEAD = '"kind": "flype", "params": {"sign": -1}'
EXCHANGE_HEAD = '"initial_word": "n=3 s1^2 s2 s1^-1 s2^-1", "mode": "topological"'


@pytest.mark.parametrize(
    "argv, files, message",
    [
        pytest.param(
            ["flype", "--desc", "{tmp}/missing.json"], {}, "No such file or directory",
            id="desc-missing",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/bad.json"], {"bad.json": "{broken"},
            "Expecting property name", id="desc-invalid-json",
        ),
        pytest.param(
            ["certify", "--p", "2", "--q", "4", "--r", "3", "--out", "{tmp}/nodir/x.txt"], {},
            "No such file or directory", id="out-missing-dir",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"], {"t.json": '{"moves": 5, %s}' % TOWER_HEAD},
            "bad tower description: 'moves' must be a JSON array", id="tower-moves-not-list",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"], {"t.json": "[]"},
            "bad tower description: a tower description must be a JSON object",
            id="tower-top-level-array",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"], {"t.json": '{"moves": [5], %s}' % TOWER_HEAD},
            "bad tower description: move 0 must be a JSON object, got 5",
            id="tower-move-not-object",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "stabilize", "sign": [1]}], %s}' % TOWER_HEAD},
            "bad tower description: move 0 is a malformed stabilize move",
            id="tower-sign-not-int",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"], {"d.json": "[]"},
            "a template description must be a JSON object", id="desc-top-level-array",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"], {"d.json": '"x"'},
            "a template description must be a JSON object", id="desc-top-level-string",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{%s, "assignment": 5}' % FLYPE_HEAD},
            "assignment must map block ids to word strings", id="desc-assignment-not-object",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{%s, "assignment": {"P": 5, "R": "s1", "Q": "s1"}}' % FLYPE_HEAD},
            "assignment must map block ids to word strings", id="desc-word-not-string",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"], {"d.json": '{"kind": ["flype"]}'},
            "unknown template kind ['flype']", id="desc-kind-not-string",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{"kind": "exchange", "params": {"weight": "2"}}'},
            "params for exchange must be integers", id="desc-param-not-int",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{"kind": "flype", "params": {"sign": -1, "w": 1}}'},
            "bad params for flype", id="desc-weight-param",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "exchange", "split": [2.9, "4"]}], %s}'
             % EXCHANGE_HEAD},
            "bad tower description: move 0 is a malformed exchange move",
            id="tower-split-not-int",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "stabilize", "sign": "1"}], %s}' % TOWER_HEAD},
            "bad tower description: move 0 is a malformed stabilize move",
            id="tower-sign-string",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "destabilize", "sign": true}], %s}' % TOWER_HEAD},
            "bad tower description: move 0 is a malformed destabilize move",
            id="tower-sign-bool",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "stabilize", "sign": -0.5}], %s}' % TOWER_HEAD},
            "bad tower description: move 0 is a malformed stabilize move",
            id="tower-sign-fraction",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{"kind": "flype", "params": {"sign": true}, '
                       '"assignment": {"P": "s1", "R": "s1", "Q": "s1"}}'},
            "params for flype must be integers", id="desc-param-bool",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "stabilize"}], %s}' % TOWER_HEAD},
            "bad tower description: move 0 (stabilize) has no 'sign'",
            id="tower-stabilize-no-sign",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "stabilize", "sign": 1}, {"kind": "conjugate"}], %s}'
             % TOWER_HEAD},
            "bad tower description: move 1 (conjugate) has no 'conjugator'",
            id="tower-conjugate-no-conjugator",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "exchange"}], %s}' % EXCHANGE_HEAD},
            "bad tower description: move 0 (exchange) has no 'split'",
            id="tower-exchange-no-split",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"mode": "transversal", "moves": []}'},
            "bad tower description: missing key 'initial_word'",
            id="tower-no-initial-word",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"], {"t.json": "[" * 100_000},
            "bad tower description: JSON nested too deeply", id="tower-deep-nesting",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"], {"d.json": '{"kind": ' + "[" * 100_000},
            "JSON nested too deeply", id="desc-deep-nesting",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "exchange", "split": [1, 2, 3]}], %s}'
             % EXCHANGE_HEAD},
            "bad tower description: move 0 (exchange): too many values to unpack",
            id="tower-split-three-values",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "stabilize", "sign": 1}, '
                       '{"kind": "conjugate", "conjugator": "x1"}], %s}' % TOWER_HEAD},
            "bad tower description: move 1 (conjugate): bad letter token: 'x1'",
            id="tower-conjugator-bad-letter",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"initial_word": "n=3 s1 s1", "mode": "topological", '
                       '"moves": [{"kind": "destabilize", "sign": 1}]}'},
            "bad tower description: move 0 (destabilize): last generator must occur exactly once",
            id="tower-destabilize-not-applicable",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "twist"}], %s}' % TOWER_HEAD},
            "bad tower description: move 0 has unknown kind 'twist'",
            id="tower-unknown-kind",
        ),
        pytest.param(
            ["conjugate", "s1", "s2"], {}, "need exactly 3 strands, got 2",
            id="conjugate-not-three-strands",
        ),
        pytest.param(
            ["classify", "n=4 s1"], {}, "need exactly 3 strands, got 4",
            id="classify-not-three-strands",
        ),
        pytest.param(
            ["components", "n=3 s1^99999999999999999999"], {},
            "word too long at 's1^99999999999999999999': more than 1000000 letters",
            id="word-huge-exponent",
        ),
        pytest.param(
            ["components", "n=3 s1^10000000000"], {},
            "word too long at 's1^10000000000': more than 1000000 letters",
            id="word-exponent-past-memory",
        ),
        pytest.param(
            ["certify", "--p", "99999999999999999999", "--q", "3", "--r", "2"], {},
            "s1^199999999999999999999 has more than 1000000 letters",
            id="certify-huge-p",
        ),
        pytest.param(
            ["components", "n=1000000000 s1"], {},
            "strands must be in 1..500, got 1000000000", id="word-huge-strand-count",
        ),
        pytest.param(
            ["components", "--n", "100000000", "s1"], {},
            "strands must be in 1..500, got 100000000", id="override-huge-strand-count",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{"kind": "exchange", "params": {"weight": 1000000000}, '
                       '"assignment": {"P": "n=1000000001", "Q": "s1"}}'},
            "strands must be in 1..500, got 1000000001", id="desc-huge-block-word",
        ),
        pytest.param(
            ["flype", "--desc", "{tmp}/d.json"],
            {"d.json": '{"kind": "exchange", "params": {"weight": 1000000000}, '
                       '"assignment": {"P": "s1", "Q": "s1"}}'},
            "exchange weight 1000000000 needs more than 500 strands", id="desc-huge-weight",
        ),
        pytest.param(
            ["tower-validate", "{tmp}/t.json"],
            {"t.json": '{"moves": [{"kind": "conjugate", "conjugator": "s1^1000000"}], %s}'
             % TOWER_HEAD},
            "bad tower description: move 0 (conjugate): "
            "conjugating gives 2000002 letters, more than 1000000",
            id="tower-conjugate-past-letter-cap",
        ),
        pytest.param(
            ["sweep", "--max", "1000000"], {},
            "sweep bounds must be <= 24", id="sweep-past-cap",
        ),
        pytest.param(
            ["flype", "--P", "s1^1000000", "--R", "s1^1000000", "--Q", "s1^1000000"], {},
            "instantiating gives 3000001 letters, more than 1000000",
            id="flype-past-letter-cap",
        ),
        pytest.param(
            ["certify", "--p", "400000", "--q", "400002", "--r", "400001"], {},
            "instantiating gives 2400008 letters, more than 1000000",
            id="certify-past-letter-cap",
        ),
    ],
)
def test_bad_input_is_one_error_line(capsys, tmp_path, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_library_value_error_is_one_error_line(capsys, monkeypatch):
    def fail(word):
        raise ValueError("boom")

    # the verb imports components when it runs, so the patch goes on links
    monkeypatch.setattr(braidcalc.links, "components", fail)
    assert run_cli(capsys, "components", "s1") == (2, "", "error: boom\n")


# a verb's argv (None: import only), its exit code and the modules it loads
_LOADED_BY_VERB = [
    (None, None, {"words"}),
    (["invariants", "s1"], 0, {"words"}),
    (["tower-validate"], 0, {"words", "moves"}),
    (["components", "s1 s2"], 0, {"words", "links"}),
    (["conjugate", "s1 s2", "s2 s1"], 0, {"words", "b3"}),
    (["classify", "s1 s2"], 0, {"words", "b3"}),
    (["flype", "--P", "s1", "--R", "s1", "--Q", "s1"], 0, {"words", "templates", "links"}),
    (["flype", "--desc", "{tmp}/d.json"], 0, {"words", "templates", "links"}),
    (["certify", "--p", "2", "--q", "4", "--r", "3"], 0,
     {"words", "b3", "burau", "certify", "links", "templates"}),
    (["sweep", "--max", "3"], 0,
     {"words", "b3", "burau", "certify", "links", "templates"}),
]


# Standard-library modules that no verb needs and that cost milliseconds
# at start-up: dataclasses generates code per class and imports inspect.
_STARTUP_HEAVY = ("dataclasses", "inspect")


def _heavy_loaded(env, script, *args, stdin=""):
    """Run ``script`` in a fresh interpreter; the JSON it prints, followed
    by the ``_STARTUP_HEAVY`` modules loaded when it ends."""
    script += f"print(json.dumps(sorted(m for m in {_STARTUP_HEAVY} if m in sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        input=stdin, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


@pytest.mark.parametrize(
    "argv, code, loaded", _LOADED_BY_VERB,
    ids=[
        argv[0] + ("-desc" if "--desc" in argv else "") if argv else "import"
        for argv, _, _ in _LOADED_BY_VERB
    ],
)
def test_each_verb_imports_only_its_modules(argv, code, loaded, tmp_path):
    # a fresh interpreter, so that nothing this test session imported counts
    script = (
        "import io, json, sys, contextlib\n"
        "import braidcalc.cli\n"
        "argv, code = json.loads(sys.argv[1]), None\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = braidcalc.cli.main(argv)\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('braidcalc'))]))\n"
    )
    src = str(Path(braidcalc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tower = tower_to_json("topological", parse_word("n=3 s1"), (Stabilize(1),))
    desc = '{%s, "assignment": {"P": "s1", "R": "s1", "Q": "s1"}}' % FLYPE_HEAD
    (tmp_path / "d.json").write_text(desc)
    if argv is not None:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
    ran, heavy = _heavy_loaded(env, script, json.dumps(argv), stdin=tower)
    assert ran == [
        code,
        sorted({"braidcalc", "braidcalc.cli"} | {"braidcalc." + name for name in loaded}),
    ]
    # a bare interpreter may load them itself, through site or a .pth file
    [bare] = _heavy_loaded(env, "import json, sys\n")
    assert set(heavy) <= set(bare)


def test_certify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "2", "--q", "4", "--r", "3")
    assert code == 0
    assert out.splitlines() == [
        "params: p=2 q=4 r=3",
        "tx_plus: s1^5 s2^8 s1^6 s2^-1",
        "tx_minus: s1^5 s2^-1 s1^6 s2^8",
        "conditions_ok: true",
        "beta_plus: 15",
        "beta_minus: 15",
        "beta_formula_ok: true",
        "alexander_equal: true",
        "conjugacy_distinct: true",
        "not_unknot: true",
        "not_torus: true",
        "kolee_single_sign: true",
        "obstruction_swap_detected: true",
        "verdict: CERTIFIED_NOT_TRANSVERSALLY_SIMPLE",
    ]
    code, out, _ = run_cli(capsys, "certify", "--p", "2", "--q", "3", "--r", "3")
    assert code == 1
    assert out.splitlines() == [
        "params: p=2 q=3 r=3",
        "tx_plus: s1^5 s2^6 s1^6 s2^-1",
        "tx_minus: s1^5 s2^-1 s1^6 s2^6",
        "conditions_ok: false",
        "beta_plus: 13",
        "beta_minus: 13",
        "beta_formula_ok: true",
        "alexander_equal: true",
        "conjugacy_distinct: false",
        "not_unknot: true",
        "not_torus: true",
        "kolee_single_sign: true",
        "obstruction_swap_detected: true",
        "verdict: FAILED(conditions: q = r)",
    ]


def test_certify_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "2", "--q", "4", "--r", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")
    assert payload["checks"]["obstruction"]["component_table"] == [[1, -1, -3], [2, -3, -1]]


def test_sweep_text_and_out(capsys, tmp_path):
    target = tmp_path / "sweep.txt"
    code, out, _ = run_cli(capsys, "sweep", "--max", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[-1].startswith("certified ")
    assert all("verdict=CERTIFIED_NOT_TRANSVERSALLY_SIMPLE" in line for line in lines[:-1])


def test_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2 and err.startswith("error:")
    assert err.count("\n") == 1
    code, _, err = run_cli(capsys, "invariants", "not a word")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys, "invariants", "s1",
        env={"BRAIDCALC_FORMAT": "yaml"}, monkeypatch=monkeypatch,
    )
    assert code == 2 and "BRAIDCALC_FORMAT" in err


# CLI fuzzing: well-formed and malformed pieces, all small, so every run
# is quick.  Sweep bounds stay small because a sweep's time grows faster
# than their cube.
_GOOD_TOKENS = st.builds(
    "s{}^{}".format, st.integers(min_value=1, max_value=2), st.sampled_from([-3, -2, -1, 2, 3, 5])
) | st.builds("s{}".format, st.integers(min_value=1, max_value=2))
_TOKENS = _GOOD_TOKENS | st.sampled_from(
    [
        "s3", "s4^-2", "s0", "s1^0", "n=3", "n=4", "n=1", "n=0", "n=-2", "n=x", "n=1000000000",
        "s1^", "x1", "s1^1.5", "s99999999999999999999", "s1^99999999999999999999",
    ]
)
_WORDS = (st.lists(_GOOD_TOKENS, max_size=6) | st.lists(_TOKENS, max_size=6)).map(" ".join)
_INTS = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 10**9, 10**20])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats(allow_nan=False) | st.text(max_size=4) | _WORDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _fields(**fields):
    """A JSON object with all of ``fields``, or with any subset of them,
    each sometimes junk."""
    junk = {k: v | _JSON_VALUES for k, v in fields.items()}
    return st.fixed_dictionaries(fields) | st.fixed_dictionaries({}, optional=junk)


_MOVES = _fields(
    kind=st.sampled_from(["stabilize", "destabilize", "conjugate", "exchange", "flip"]),
    sign=st.sampled_from([1, -1]),
    conjugator=_WORDS,
    split=st.lists(st.integers(min_value=-1, max_value=8), max_size=3),
)
_DOCUMENTS = st.one_of(
    _fields(
        initial_word=_WORDS,
        mode=st.sampled_from(["transversal", "topological", "smooth"]),
        moves=st.lists(_MOVES, max_size=4),
    ).map(json.dumps),
    _fields(
        kind=st.sampled_from(["flype", "exchange", "destabilize", "twist"]),
        params=st.fixed_dictionaries(
            {}, optional={"sign": st.sampled_from([1, -1, 2]), "weight": _INTS, "w": _INTS}
        ),
        assignment=st.fixed_dictionaries({}, optional={"P": _WORDS, "Q": _WORDS, "R": _WORDS}),
    ).map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    st.text(max_size=20),
)
_SMALL = st.integers(min_value=1, max_value=3).map(str)
_FLAG_VALUES = {
    "--n": _INTS.map(str),
    "--p": _INTS.map(str), "--q": _INTS.map(str), "--r": _INTS.map(str),
    "--max": _SMALL, "--p-max": _SMALL, "--q-max": _SMALL, "--r-max": _SMALL,
    "--sign": st.sampled_from(["1", "-1", "1", "-1", "2"]),
    "--P": _WORDS, "--Q": _WORDS, "--R": _WORDS,
    "--format": st.sampled_from(["text", "json", "text", "json", "yaml"]),
    "--desc": st.just("{doc}"), "--json": st.none(), "--bogus": st.none(),
}
# verb: (positional words, its own flags)
_VERBS = {
    "invariants": (1, ["--n", "--format"]),
    "components": (1, ["--n", "--format"]),
    "conjugate": (2, ["--n", "--format"]),
    "classify": (1, ["--n", "--format"]),
    "flype": (0, ["--sign", "--P", "--R", "--Q", "--format"]),
    "tower-validate": (0, ["--format"]),
    "certify": (0, ["--p", "--q", "--r", "--json", "--format"]),
    "sweep": (0, ["--max", "--p-max", "--q-max", "--r-max", "--json", "--format"]),
}


@st.composite
def _argv(draw):
    """An argv whose verb gets its own flags, each nine times in ten, and
    one time in ten a wrong count of words or a foreign flag; ``{doc}``
    stands for the path of a file holding a drawn document."""
    verb = draw(st.sampled_from(sorted(_VERBS) + ["help"]))
    count, own = _VERBS.get(verb, (0, []))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        count = draw(st.integers(min_value=0, max_value=3))
    argv = [verb] + draw(st.lists(_WORDS, min_size=count, max_size=count))
    if draw(st.booleans()):  # else tower-validate reads the document from stdin
        argv += {"flype": ["--desc", "{doc}"], "tower-validate": ["{doc}"]}.get(verb, [])
    flags = [f for f in own if draw(st.integers(min_value=0, max_value=9))]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    for flag in flags:
        value = draw(_FLAG_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(deadline=None, max_examples=150)
@given(_argv(), _DOCUMENTS)
def test_cli_fuzz(argv, document):
    """Any such argv exits 0, 1 or 2 with no exception, and a usage error
    is exactly one error: line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(document)
        argv = [arg.replace("{doc}", str(doc)) for arg in argv]
        with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
            sys, "stdin", io.StringIO(document)
        ):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv
