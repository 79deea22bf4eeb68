import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fairrank.cli import main
from fairrank.data import InteractionDataset, load_groups, load_interactions
from fairrank.mf import MfParams, load_checkpoint, save_checkpoint

from conftest import BAD_CHECKPOINT_SHAPES, DATA_DIR, with_first_shape
from oracles import brute_rank, brute_rsp

SMALL_INTER = os.path.join(DATA_DIR, "interactions_small.csv")
SMALL_GROUPS = os.path.join(DATA_DIR, "groups_small.csv")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """CSV pair produced by the synth command itself."""
    root = tmp_path_factory.mktemp("corpus")
    ini = _write(
        root / "synth.ini",
        "[synthetic]\n"
        "num_users = 80\n"
        "num_items = 30\n"
        "num_groups = 2\n"
        "group_item_shares = 0.75,0.25\n"
        "group_popularity = 0.75,0.25\n"
        "interactions_per_user = 6\n"
        "seed = 5\n",
    )
    out = root / "data"
    assert main(["synth", "--config", ini, "--out", str(out)]) == 0
    return out


def _exp_ini(path, corpus_dir, model="bpr", epochs=2, extra_train="",
             out_dir=None, eval_every=0):
    return _write(
        path,
        "[data]\n"
        f"interactions = {corpus_dir / 'interactions.csv'}\n"
        f"groups = {corpus_dir / 'groups.csv'}\n"
        "[train]\n"
        f"model = {model}\n"
        "dim = 8\n"
        f"epochs = {epochs}\n"
        f"eval_every = {eval_every}\n"
        "seed = 3\n"
        + extra_train
        + ("[output]\n" f"dir = {out_dir}\n" if out_dir is not None else "")
    )


def test_synth_outputs_are_loadable(corpus_dir):
    inter = (corpus_dir / "interactions.csv").read_text().splitlines()
    groups = (corpus_dir / "groups.csv").read_text().splitlines()
    assert inter[0] == "user_id,item_id"
    assert groups[0] == "item_id,group"
    assert len(inter) == 1 + 80 * 6
    # every interacted item carries a group row
    items = {line.split(",")[1] for line in inter[1:]}
    assert items == {line.split(",")[0] for line in groups[1:]}


def test_train_eval_roundtrip(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir,
                   out_dir=tmp_path / "runs", eval_every=2)
    assert main(["train", "--config", ini]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    run_dir = out_lines[-1]
    ckpt = os.path.join(run_dir, "checkpoint")
    assert out_lines[-2] == f"checkpoint: {ckpt}"
    assert os.path.exists(ckpt)
    log_lines = open(os.path.join(run_dir, "trainlog.csv")).read().splitlines()
    assert log_lines[0] == "epoch,loss_bpr,loss_adv,loss_kl,val_f1_15,seconds"
    assert len(log_lines) == 3
    assert os.path.exists(os.path.join(run_dir, "config.resolved"))

    assert main(["eval", "--config", ini, "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    for k in (5, 10, 15):
        assert f"k={k}\tf1=" in out
    report_path = os.path.join(run_dir, "report.json")
    assert f"report: {report_path}" in out
    import json

    report = json.loads(open(report_path).read())
    for key in ("f1@15", "ndcg@15", "rsp@15", "reo@15",
                "js_user", "js_group_all", "group_probs"):
        assert key in report
    tsv = open(os.path.join(run_dir, "report.tsv")).read().splitlines()
    # k<TAB>metric<TAB>model<TAB>value rows, 4 metric rows per k plus 3 js rows
    assert len(tsv) == 4 * 3 + 3
    assert tsv[0].split("\t")[:3] == ["5", "f1", "bpr"]
    assert tsv[-1].split("\t")[:3] == ["-", "js_group_pos", "bpr"]


def test_train_missing_alpha_fails(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "bad.ini", corpus_dir, model="dpr-rsp",
                   extra_train="beta = 0.0\n",
                   out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 1
    assert "alpha required" in capsys.readouterr().err


def test_train_without_validation_pairs_fails(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "noval.ini", corpus_dir, epochs=6, eval_every=5,
                   out_dir=tmp_path / "runs")
    text = open(ini).read().replace(
        "[train]\n", "train_ratio = 0.8\nval_ratio = 0\ntest_ratio = 0.2\n[train]\n"
    )
    _write(ini, text)
    assert main(["train", "--config", ini]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: train.eval_every:") and "val_ratio" in err
    assert not (tmp_path / "runs").exists()


def test_train_diverging_discriminator_is_domain_error(
    corpus_dir, tmp_path, capsys
):
    ini = _exp_ini(tmp_path / "hot.ini", corpus_dir, model="dpr-rsp",
                   extra_train="alpha = 1.0\nbeta = 0.0\nlr_adv = 1e200\n",
                   out_dir=tmp_path / "runs")
    with np.errstate(all="ignore"):
        assert main(["train", "--config", ini]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lr_adv" in err


def test_train_zero_alpha_stores_no_adversary(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "shape.ini", corpus_dir, model="dpr-reo",
                   extra_train="alpha = 0.0\nbeta = 1.0\n",
                   out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    ckpt = os.path.join(run_dir, "checkpoint")
    with open(ckpt, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["adversary"] is None
    assert load_checkpoint(ckpt)[1] is None
    rows = open(os.path.join(run_dir, "trainlog.csv")).read().splitlines()
    assert len(rows) == 1 + 10 + 2  # header, warm start, rounds
    assert all(row.split(",")[2] == "" for row in rows[1:])


def test_eval_dimension_mismatch(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    ckpt = os.path.join(run_dir, "checkpoint")

    other_ini = _write(
        tmp_path / "other_synth.ini",
        "[synthetic]\n"
        "num_users = 40\n"
        "num_items = 20\n"
        "num_groups = 2\n"
        "group_item_shares = 0.5,0.5\n"
        "group_popularity = 0.9,0.3\n"
        "interactions_per_user = 4\n"
        "seed = 1\n",
    )
    other_dir = tmp_path / "other"
    assert main(["synth", "--config", other_ini, "--out", str(other_dir)]) == 0
    capsys.readouterr()
    eval_ini = _exp_ini(tmp_path / "eval.ini", other_dir)
    assert main(["eval", "--config", eval_ini, "--checkpoint", ckpt]) == 1
    assert "checkpoint holds" in capsys.readouterr().err


def test_audit_group_table(capsys):
    assert main(["audit", "--interactions", SMALL_INTER,
                 "--groups", SMALL_GROUPS]) == 0
    out = capsys.readouterr().out
    assert "group\titems\tfeedback\tratio" in out
    assert "red\t2\t5\t2.5" in out
    assert "yellow\t1\t3\t3" in out
    assert "brown\t1\t1\t1" in out
    assert "dark\t1\t2\t2" in out
    assert "feedback ratio relative spread: " in out


def test_unreadable_interactions_are_domain_errors(
    corpus_dir, tmp_path, capsys
):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"user_id,item_id\na,\xff\xfe\n")
    for path in (bad, tmp_path):
        code = main(["audit", "--interactions", str(path),
                     "--groups", SMALL_GROUPS])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir)
    ini_text = open(ini, encoding="utf-8").read()
    _write(ini, ini_text.replace(
        str(corpus_dir / "interactions.csv"), str(bad)
    ))
    assert main(["train", "--config", ini]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8")


def test_audit_with_checkpoint(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["audit",
                 "--interactions", str(corpus_dir / "interactions.csv"),
                 "--groups", str(corpus_dir / "groups.csv"),
                 "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--k", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    head = out.index("top-5 exposure probability by group:")
    assert out[-1].startswith("exposure relative spread: ")

    # oracle: every interaction is history, so all of it is excluded
    raw = load_interactions(str(corpus_dir / "interactions.csv"))
    catalog = load_groups(str(corpus_dir / "groups.csv"), raw.item_index)
    params, _, _ = load_checkpoint(os.path.join(run_dir, "checkpoint"))
    history = [[] for _ in range(raw.num_users)]
    for u, i in raw.pairs.tolist():
        history[u].append(i)
    empty = [[] for _ in range(raw.num_users)]
    ds = InteractionDataset(raw.num_users, raw.num_items, history, empty, empty)
    expected = brute_rsp(brute_rank(params, ds, 5, "train"), ds, catalog, 5)
    rows = [line.split("\t") for line in out[head + 1 : -1]]
    assert [name for name, _ in rows] == catalog.group_names
    assert np.allclose([float(p) for _, p in rows], expected, rtol=1e-12)


def test_audit_non_finite_checkpoint_is_domain_error(corpus_dir, tmp_path, capsys):
    # a plausible exposure spread would hide the broken factors
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    params, _, config_hash = load_checkpoint(os.path.join(run_dir, "checkpoint"))
    params.user_factors[2] = np.nan
    params.item_factors[4] = np.inf
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(bad, params, config_hash)
    assert main(["audit",
                 "--interactions", str(corpus_dir / "interactions.csv"),
                 "--groups", str(corpus_dir / "groups.csv"),
                 "--checkpoint", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "hold a non-finite" in captured.err
    assert "exposure relative spread" not in captured.out


@pytest.mark.parametrize("k", ["0", "-3"])
def test_audit_rejects_k_below_one(k, capsys):
    assert main(["audit", "--interactions", SMALL_INTER,
                 "--groups", SMALL_GROUPS, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k must be >= 1" in captured.err


def _rename_array(data):
    head, body = data.split(b"\n", 1)
    return head.replace(b'"item_factors"', b'"item_factorz"') + b"\n" + body


@pytest.mark.parametrize(
    "corrupt,fragment",
    [
        (_rename_array, "lacks item_factors"),
        (lambda data: data + bytes(8), "unexpected bytes after the last"),
    ],
    ids=["missing-array", "trailing-bytes"],
)
def test_eval_malformed_checkpoint_is_domain_error(
    corrupt, fragment, corpus_dir, tmp_path, capsys
):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    data = open(os.path.join(run_dir, "checkpoint"), "rb").read()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(data))
    assert main(["eval", "--config", ini, "--checkpoint", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("command", ["eval", "audit"])
def test_missing_or_unreadable_checkpoint_is_domain_error(
    command, corpus_dir, tmp_path, capsys
):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    args = {
        "eval": ["eval", "--config", ini],
        "audit": ["audit", "--interactions", str(corpus_dir / "interactions.csv"),
                  "--groups", str(corpus_dir / "groups.csv")],
    }[command]
    missing = str(tmp_path / "nope.ckpt")
    for path, message in [
        (missing, f"file not found: {missing}"),
        (str(tmp_path), f"{tmp_path}: cannot read (Is a directory)"),
    ]:
        assert main(args + ["--checkpoint", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_non_finite_checkpoint_is_domain_error(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    params, _, config_hash = load_checkpoint(os.path.join(run_dir, "checkpoint"))
    params.item_factors[4] = np.nan
    bad = str(tmp_path / "nan.ckpt")
    save_checkpoint(bad, params, config_hash)
    out = tmp_path / "out"
    assert main(["eval", "--config", ini, "--checkpoint", bad, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "item matrix hold a non-finite" in err
    assert not out.exists()


def test_eval_overflowing_checkpoint_is_domain_error(corpus_dir, tmp_path, capsys):
    # finite factors whose scores overflow to inf once evaluated with a
    # traceback and ranked item 4 first for every user
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    params, _, config_hash = load_checkpoint(os.path.join(run_dir, "checkpoint"))
    params.user_factors *= 1e200
    params.item_factors[4] *= 1e200
    bad = str(tmp_path / "big.ckpt")
    save_checkpoint(bad, params, config_hash)
    out = tmp_path / "out"
    assert main(["eval", "--config", ini, "--checkpoint", bad, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large to score" in err
    assert not out.exists()


def test_eval_checkpoint_bad_shapes_are_domain_errors(
    corpus_dir, tmp_path, capsys
):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    data = open(os.path.join(run_dir, "checkpoint"), "rb").read()
    for shape, fragment in BAD_CHECKPOINT_SHAPES.values():
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_first_shape(data, shape))
        assert main(["eval", "--config", ini, "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err


def test_checkpoint_factors_of_other_widths_are_domain_errors(
    corpus_dir, tmp_path, capsys
):
    # scoring them would die in numpy's matmul with a traceback
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    path = os.path.join(run_dir, "checkpoint")
    params, _, config_hash = load_checkpoint(path)
    narrow = str(tmp_path / "narrow.ckpt")
    save_checkpoint(
        narrow,
        MfParams(params.user_factors[:, 1:], params.item_factors),
        config_hash,
    )
    flat = tmp_path / "flat.ckpt"
    flat.write_bytes(
        with_first_shape(open(path, "rb").read(), [params.user_factors.size])
    )
    audit = ["audit",
             "--interactions", str(corpus_dir / "interactions.csv"),
             "--groups", str(corpus_dir / "groups.csv"),
             "--checkpoint"]
    for bad in (narrow, str(flat)):
        for args in (["eval", "--config", ini, "--checkpoint", bad],
                     audit + [bad]):
            assert main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "not two matrices of one width" in err


@pytest.mark.parametrize(
    "parameter,values,fragment",
    [
        ("alpha", "inf,1", "must be finite, got 'inf'"),
        ("alpha", "nan,1", "must be finite, got 'nan'"),
        ("adv_layers", "1.5,2", "expected an integer, got '1.5'"),
    ],
)
def test_sweep_refuses_what_its_config_key_refuses(
    parameter, values, fragment, corpus_dir, tmp_path, capsys, caplog
):
    ini = _exp_ini(tmp_path / "sweep.ini", corpus_dir, model="dpr-rsp",
                   extra_train="beta = 0.0\n")
    with caplog.at_level("INFO"):
        assert main(["sweep", "--config", ini, "--parameter", parameter,
                     "--values", values]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and fragment in err
    assert not [r for r in caplog.records if "sweep:" in r.getMessage()]


def test_sweep_table(corpus_dir, tmp_path, capsys):
    # alpha left unset on purpose: the sweep fills it in per value
    ini = _exp_ini(tmp_path / "sweep.ini", corpus_dir, model="dpr-rsp",
                   extra_train=("beta = 0.0\npretrain_epochs = 1\n"
                                "theta_batches_per_round = 1\n"),
                   out_dir=tmp_path / "runs")
    assert main(["sweep", "--config", ini, "--parameter", "alpha",
                 "--values", "0.0,1.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-3] == "value\tf1@15\trsp@15"
    assert lines[-2].startswith("0.0\t")
    assert lines[-1].startswith("1.0\t")


def test_usage_errors_exit_2(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir)
    assert main(["sweep", "--config", ini, "--parameter", "alpha",
                 "--values", "1.0"]) == 2
    assert "at least 2" in capsys.readouterr().err
    assert main(["sweep", "--config", ini, "--parameter", "nope",
                 "--values", "1,2"]) == 2
    assert main(["sweep", "--config", ini, "--parameter", "alpha",
                 "--values", "1,zap"]) == 2
    assert "invalid value 'zap'" in capsys.readouterr().err
    assert main(["train", "--config", ini, "--frobnicate"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


def test_module_entry_point_prints_usage():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "fairrank.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: fairrank")


def test_missing_config_file_is_domain_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_train_determinism_across_out_dirs(corpus_dir, tmp_path, capsys):
    ini_a = _exp_ini(tmp_path / "a.ini", corpus_dir, out_dir=tmp_path / "runs_a")
    ini_b = _exp_ini(tmp_path / "b.ini", corpus_dir, out_dir=tmp_path / "runs_b")
    assert main(["train", "--config", ini_a]) == 0
    dir_a = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["train", "--config", ini_b]) == 0
    dir_b = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.basename(dir_a) == os.path.basename(dir_b)
    assert dir_a != dir_b

    read = lambda d, n: open(os.path.join(d, n), "rb").read()
    assert read(dir_a, "checkpoint") == read(dir_b, "checkpoint")
    assert read(dir_a, "config.resolved") == read(dir_b, "config.resolved")
    # wall times differ between runs; everything else must not
    strip = lambda d: [
        ",".join(line.split(",")[:5])
        for line in read(d, "trainlog.csv").decode().splitlines()
    ]
    assert strip(dir_a) == strip(dir_b)

    for ini, d in ((ini_a, dir_a), (ini_b, dir_b)):
        assert main(["eval", "--config", ini,
                     "--checkpoint", os.path.join(d, "checkpoint")]) == 0
    capsys.readouterr()
    assert read(dir_a, "report.json") == read(dir_b, "report.json")


def test_seed_override_changes_run(corpus_dir, tmp_path, capsys):
    ini = _exp_ini(tmp_path / "exp.ini", corpus_dir, out_dir=tmp_path / "runs")
    assert main(["train", "--config", ini]) == 0
    dir_a = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["train", "--config", ini, "--seed", "9"]) == 0
    dir_b = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.basename(dir_a) != os.path.basename(dir_b)
    a = open(os.path.join(dir_a, "checkpoint"), "rb").read()
    b = open(os.path.join(dir_b, "checkpoint"), "rb").read()
    assert a != b


def test_synth_csv_bytes_are_pinned(tmp_path):
    # 3 groups, and fewer draws than items, so groups.csv leaves some out
    ini = _write(
        tmp_path / "synth.ini",
        "[synthetic]\n"
        "num_users = 40\n"
        "num_items = 60\n"
        "num_groups = 3\n"
        "group_item_shares = 0.5,0.3,0.2\n"
        "group_popularity = 1.0,0.5,0.1\n"
        "interactions_per_user = 4\n"
        "seed = 11\n",
    )
    out = tmp_path / "data"
    assert main(["synth", "--config", ini, "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("interactions.csv", "groups.csv")
    }
    assert digests == {
        "interactions.csv": (
            "4a3fec6c2d3dd8cc68a624842af55b72e8fec56381a4f4d11673a55459212c74"
        ),
        "groups.csv": (
            "90ba214b8ee9ccf8d7f53bdf1587c610c5ebd9e6c152898c1ace3276de872372"
        ),
    }
